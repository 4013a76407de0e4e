// Package cliflags factors the flag handling the campaign binaries share —
// -workers, -seed, -cpuprofile, -memprofile, -stats, -engine — so
// affinitysim (every exhibit: characterize, measure, compare, future,
// trace, extras) and affinityd define them once, with identical names,
// defaults, and help text.
package cliflags

import (
	"flag"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

// Common holds the shared flag values after parsing.
type Common struct {
	// Workers bounds concurrent simulation cells (0 = all CPUs,
	// 1 = sequential). Results are identical for every worker count.
	Workers int
	// Seed is the campaign root random seed.
	Seed uint64
	// CPUProfile and MemProfile are pprof output paths ("" = off).
	CPUProfile string
	MemProfile string
	// Stats requests the response-time decomposition table after the
	// campaign's own exhibits (engine counters: reallocations, P^A/P^NA
	// charges, cache-reload transient). The exhibit output itself is
	// unchanged — stats flow out of band, on the campaign context's
	// obs collector.
	Stats bool
	// Engine is the per-cell execution tier for grid-shaped campaigns;
	// set only when the binary called RegisterEngine (empty otherwise, the
	// simulator everywhere).
	Engine string
}

// Register installs the shared flags on fs and returns the value struct
// they parse into.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", 0, "concurrent simulation cells (0 = all CPUs, 1 = sequential)")
	fs.Uint64Var(&c.Seed, "seed", 1, "root random seed")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&c.Stats, "stats", false, "print the simulation-counter decomposition table after the exhibits")
	return c
}

// RegisterEngine installs the -engine flag on fs. Binaries that call it
// must validate the parsed value against the campaign kind they drive
// (experiments.ValidateEngine) before running: the flag is uniform
// across the CLIs, but only the grid-shaped kinds accept a tier other
// than the simulator, and a tier that would be ignored is an error, not
// a no-op.
func (c *Common) RegisterEngine(fs *flag.FlagSet) {
	fs.StringVar(&c.Engine, "engine", experiments.EngineSim,
		"per-cell execution tier for grid-shaped campaigns: sim (discrete-event simulator), "+
			"analytic (fast fluid estimator), or auto (analytic only inside the validated envelope)")
}

// StartProfiling begins any requested profiles. The returned stop
// function must run before process exit (it finalizes profile files) and
// its error reported.
func (c *Common) StartProfiling() (stop func() error, err error) {
	return profiling.Start(c.CPUProfile, c.MemProfile)
}
