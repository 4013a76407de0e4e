// Package cliflags factors the flag handling the campaign binaries share —
// -workers, -seed, -cpuprofile, -memprofile, -stats, -engine — so
// affinitysim (every exhibit: characterize, measure, compare, future,
// trace, extras) and affinityd define them once, with identical names,
// defaults, and help text.
package cliflags

import (
	"flag"
	"io"

	"repro/internal/experiments"
	"repro/internal/obs"
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
	// unchanged — stats flow out of band.
	Stats bool
	// Engine is the per-cell execution tier for grid-shaped campaigns;
	// set only when the binary called RegisterEngine (empty otherwise,
	// which Apply leaves alone so non-grid binaries are unaffected).
	Engine string

	// collector accumulates SimStats across every campaign Apply is
	// called for; created lazily on first Apply when Stats is set.
	collector *obs.CampaignStats
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

// Apply copies the shared values onto an experiment campaign's options,
// creating the stats collector when -stats was given. The collector is
// shared across every campaign the binary runs, so the printed table
// totals the whole invocation.
func (c *Common) Apply(opts *experiments.Options) {
	opts.Seed = c.Seed
	opts.Workers = c.Workers
	if c.Engine != "" {
		opts.Engine = c.Engine
	}
	if c.Stats && c.collector == nil {
		c.collector = obs.NewCampaignStats()
	}
	opts.Stats = c.collector
}

// WriteStats renders the accumulated decomposition table to w if -stats
// was given (and any campaign ran); otherwise it is a no-op.
func (c *Common) WriteStats(w io.Writer) error {
	if c.collector == nil {
		return nil
	}
	t := experiments.StatsReport(c.collector)
	return t.Write(w)
}

// StartProfiling begins any requested profiles. The returned stop
// function must run before process exit (it finalizes profile files) and
// its error reported.
func (c *Common) StartProfiling() (stop func() error, err error) {
	return profiling.Start(c.CPUProfile, c.MemProfile)
}
