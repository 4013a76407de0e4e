package cliflags

import (
	"flag"
	"testing"

	"repro/internal/experiments"
)

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 0 || c.Seed != 1 || c.CPUProfile != "" || c.MemProfile != "" {
		t.Errorf("defaults: %+v", c)
	}
}

func TestRegisterParseAndApply(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := Register(fs)
	err := fs.Parse([]string{"-workers", "4", "-seed", "99", "-cpuprofile", "cpu.out", "-memprofile", "mem.out"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 4 || c.Seed != 99 || c.CPUProfile != "cpu.out" || c.MemProfile != "mem.out" {
		t.Errorf("parsed: %+v", c)
	}
	p := experiments.CampaignParams{Seed: c.Seed, Workers: c.Workers}
	np, err := experiments.Campaign{Kind: "compare"}.Normalize(p)
	if err != nil {
		t.Fatalf("params from the flags invalid: %v", err)
	}
	if np.Seed != 99 || np.Workers != 4 {
		t.Errorf("normalized params: seed=%d workers=%d", np.Seed, np.Workers)
	}
}

func TestStartProfilingDisabled(t *testing.T) {
	c := &Common{}
	stop, err := c.StartProfiling()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}
