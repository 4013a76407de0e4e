// Package simtime defines the simulated time base used throughout the
// simulator: a signed 64-bit count of nanoseconds since the start of a
// simulation run.
//
// All hardware and operating-system costs in the reproduced paper are
// expressed in microseconds or milliseconds (0.75 µs cache-line fill,
// 750 µs context-switch path length, 25/100/400 ms rescheduling quanta).
// A nanosecond integer base keeps every such constant exact and makes the
// discrete-event simulation fully deterministic: there is no floating-point
// accumulation anywhere on the simulated clock.
package simtime

import "time"

// Time is an instant on the simulated clock, in nanoseconds from the start
// of the run. The zero value is the beginning of simulated time.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is a distinct
// type from time.Duration only to keep simulated and host clocks from being
// mixed accidentally; the representation is identical.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel instant later than any reachable simulation time.
const Never Time = 1<<63 - 1

// Microseconds constructs a Duration from a count of microseconds.
func Microseconds(us int64) Duration { return Duration(us) * Microsecond }

// Milliseconds constructs a Duration from a count of milliseconds.
func Milliseconds(ms int64) Duration { return Duration(ms) * Millisecond }

// Seconds constructs a Duration from a floating-point count of seconds.
// It is intended for configuration values, not for hot-path arithmetic.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Micros returns t as a floating-point count of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// SecondsF returns t as a floating-point count of seconds.
func (t Time) SecondsF() float64 { return float64(t) / float64(Second) }

// String formats t with the standard library's duration formatting.
func (t Time) String() string { return time.Duration(t).String() }

// Micros returns d as a floating-point count of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis returns d as a floating-point count of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// SecondsF returns d as a floating-point count of seconds.
func (d Duration) SecondsF() float64 { return float64(d) / float64(Second) }

// Scale returns d scaled by factor f, rounding to the nearest nanosecond.
// Scaling is used when modelling faster processors, which divide path-length
// costs by a speed factor.
func (d Duration) Scale(f float64) Duration {
	return Duration(float64(d)*f + 0.5)
}

// String formats d with the standard library's duration formatting.
func (d Duration) String() string { return time.Duration(d).String() }
