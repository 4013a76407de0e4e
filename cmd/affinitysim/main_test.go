package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParse(t *testing.T) {
	cmd, c, err := parse([]string{"compare", "-fast", "-mix", "5", "-reps", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "compare" || c.mix != 5 || c.opts.Replications != 1 {
		t.Fatalf("parse wrong: cmd=%q mix=%d reps=%d", cmd, c.mix, c.opts.Replications)
	}
	if _, _, err := parse(nil); err == nil {
		t.Error("missing subcommand accepted")
	} else {
		for _, sub := range []string{"characterize", "measure", "compare", "future", "trace", "extras", "all", "calibrate"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("missing-subcommand error %q does not list %s", err, sub)
			}
		}
	}
	if _, c, err := parse([]string{"calibrate", "-write", "-workers", "2"}); err != nil {
		t.Fatal(err)
	} else if !c.write || c.opts.Workers != 2 {
		t.Errorf("calibrate -write -workers 2: write=%v workers=%d", c.write, c.opts.Workers)
	}
	if _, _, err := parse([]string{"compare", "-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	// Seed 0 means the default seed on every path, campaign or not.
	if _, c, err := parse([]string{"measure", "-seed", "0"}); err != nil {
		t.Fatal(err)
	} else if def := experiments.DefaultOptions().Seed; c.opts.Seed != def || c.params.Seed != def {
		t.Errorf("-seed 0: opts seed %d, params seed %d, want %d", c.opts.Seed, c.params.Seed, def)
	}
	for _, bad := range [][]string{
		{"compare", "-procs", "0"},
		{"future", "-reps", "0"},
		{"measure", "-budget", "0"},
	} {
		if _, _, err := parse(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestRunRejectsBadMix(t *testing.T) {
	if err := run([]string{"compare", "-fast", "-mix", "9"}); err == nil {
		t.Error("mix 9 accepted")
	}
}

func TestFutureRejectsBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"future", "-fast", "-reps", "0"},
		{"future", "-fast", "-reps", "0", "-simulate"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: zero replications accepted", args)
		}
	}
}

func TestMeasureRejectsBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"measure", "-budget", "0"},
		{"measure", "-budget", "0", "-detail"},
		{"measure", "-budget", "1000"},
		{"measure", "-budget", "1000", "-detail"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v: budget accepted", args)
		}
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestSubcommandsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is seconds-long")
	}
	cases := [][]string{
		{"characterize", "-fast"},
		{"measure", "-fast", "-budget", "3"},
		{"compare", "-fast", "-reps", "1", "-mix", "5", "-timeshare"},
		{"future", "-fast", "-reps", "1", "-mix", "5", "-maxproduct", "64"},
		{"trace", "-fast", "-mix", "4", "-policy", "Dynamic", "-window", "2"},
	}
	for _, args := range cases {
		args := args
		t.Run(args[0], func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("affinitysim %v: %v", args, err)
			}
		})
	}
}

func TestTraceRejectsBadPolicy(t *testing.T) {
	if err := run([]string{"trace", "-fast", "-policy", "bogus"}); err == nil {
		t.Error("bogus trace policy accepted")
	}
}

func TestCSVMode(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is seconds-long")
	}
	if err := run([]string{"characterize", "-fast", "-csv"}); err != nil {
		t.Fatal(err)
	}
}
