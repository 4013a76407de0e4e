package main

import (
	"runtime"
	"syscall"
	"time"
)

// spinMargin is how long before a send waitUntil stops sleeping and
// yields in a loop instead. On the 2-CPU VM, nanosleep(2) overshot its
// deadline by a median of 96 µs and a p90 of 161 µs, about a third of a
// cache hit's latency; since latency counts from the due time, a sleeping
// generator would charge its own wake-up, and its variation with host
// load, to the daemon.
const spinMargin = 300 * time.Microsecond

// waitUntil returns at t. It sleeps in nanosleep(2) until spinMargin
// before t: the runtime's own timers can fire a millisecond late when the
// process is idle. It then yields with runtime.Gosched until t, so the
// daemon's goroutines still run on this processor meanwhile.
func waitUntil(t time.Time) {
	early := t.Add(-spinMargin)
	for d := time.Until(early); d > 0; d = time.Until(early) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
