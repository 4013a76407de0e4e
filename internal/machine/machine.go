// Package machine describes the simulated shared-memory multiprocessor:
// processor count, per-processor cache geometry, and the timing constants
// every experiment depends on.
//
// The default configuration is the paper's testbed, a Sequent Symmetry
// Model B: twenty 16 MHz Intel 80386 processors, each with a 64-Kbyte 2-way
// set-associative copy-back cache with 16-byte lines, connected by a shared
// bus. The paper estimates 0.75 µs to fetch one cache block from main
// memory without bus contention (so ≥3.072 ms to fill a whole cache) and
// measures the kernel path length of a processor reallocation at about
// 750 µs.
//
// Future machines (Section 7) are expressed with Scaled, which applies the
// paper's extrapolation rules: computational costs shrink linearly with
// processor speed, miss resolution speeds up as sqrt(processor-speed), and
// the cache grows by an integer factor.
package machine

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/simtime"
)

// Config is a machine description.
type Config struct {
	// Processors is the number of CPUs.
	Processors int
	// Cache is the per-processor cache geometry.
	Cache cache.Config
	// LineFill is the uncontended time to fetch one cache line from main
	// memory (miss resolution time).
	LineFill simtime.Duration
	// SwitchPath is the kernel path-length cost of a processor
	// reallocation (context switch), excluding cache effects.
	SwitchPath simtime.Duration
	// Speed is the processor speed relative to the baseline Symmetry.
	// Purely computational durations divide by Speed.
	Speed float64
	// BusWindow is the sliding window over which bus utilization is
	// averaged for the contention model.
	BusWindow simtime.Duration
}

// Symmetry returns the Sequent Symmetry Model B configuration.
func Symmetry() Config {
	return Config{
		Processors: 20,
		Cache:      cache.SymmetryConfig(),
		LineFill:   simtime.Duration(750), // 0.75 µs in nanoseconds
		SwitchPath: 750 * simtime.Microsecond,
		Speed:      1.0,
		BusWindow:  10 * simtime.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Processors <= 0 {
		return fmt.Errorf("machine: need at least one processor, got %d", c.Processors)
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.LineFill <= 0 {
		return fmt.Errorf("machine: LineFill must be positive, got %v", c.LineFill)
	}
	if c.SwitchPath < 0 {
		return fmt.Errorf("machine: SwitchPath must be non-negative, got %v", c.SwitchPath)
	}
	if c.Speed <= 0 {
		return fmt.Errorf("machine: Speed must be positive, got %v", c.Speed)
	}
	return nil
}

// Scaled returns the configuration of a future machine with the given
// relative processor speed and cache-size factor, applying the paper's
// Section 7 scaling rules:
//
//   - path-length costs (SwitchPath) divide by speed;
//   - miss resolution (LineFill) divides by sqrt(speed);
//   - cache capacity multiplies by cacheScale.
//
// Computational work is divided by Speed at simulation time, so Speed is
// carried in the config rather than folded into durations here.
func (c Config) Scaled(speed float64, cacheScale int) (Config, error) {
	if speed <= 0 {
		return Config{}, fmt.Errorf("machine: speed factor must be positive, got %v", speed)
	}
	if cacheScale < 1 {
		return Config{}, fmt.Errorf("machine: cache scale must be >= 1, got %d", cacheScale)
	}
	out := c
	out.Speed = c.Speed * speed
	out.SwitchPath = c.SwitchPath.Scale(1 / speed)
	out.LineFill = c.LineFill.Scale(1 / math.Sqrt(speed))
	out.Cache.SizeBytes = c.Cache.SizeBytes * cacheScale
	if err := out.Validate(); err != nil {
		return Config{}, err
	}
	return out, nil
}

// Compute returns the wall time to execute d of baseline-machine
// computation on this machine (d divided by Speed).
func (c Config) Compute(d simtime.Duration) simtime.Duration {
	if c.Speed == 1.0 {
		return d
	}
	return d.Scale(1 / c.Speed)
}
