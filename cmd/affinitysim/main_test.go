package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParse(t *testing.T) {
	cmd, c, err := parse([]string{"compare", "-fast", "-mix", "5", "-reps", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "compare" || c.mix != 5 || c.params.Replications != 1 {
		t.Fatalf("parse wrong: cmd=%q mix=%d reps=%d", cmd, c.mix, c.params.Replications)
	}
	// -fast scales the applications only: -reps and -budget keep their
	// flag defaults, which a request's fast:true would cut.
	if _, c, err := parse([]string{"compare", "-fast"}); err != nil {
		t.Fatal(err)
	} else {
		for _, kind := range []string{"compare", "future"} {
			np, err := experiments.Campaign{Kind: kind}.Normalize(c.params)
			if err != nil {
				t.Fatal(err)
			}
			want := experiments.CampaignParams{Procs: 16, Replications: 5, AppScale: 4, Seed: 1, Engine: experiments.EngineSim}
			if kind == "future" {
				want.BudgetSec = 20
			}
			np.Policies, np.MaxProduct = nil, 0
			if !reflect.DeepEqual(np, want) {
				t.Errorf("compare -fast as %s params: %+v, want %+v", kind, np, want)
			}
		}
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
	if _, c, err := parse([]string{"calibrate", "-workers", "2"}); err != nil {
		t.Fatal(err)
	} else if c.params.Workers != 2 {
		t.Errorf("calibrate -workers 2: workers=%d", c.params.Workers)
	}
	// The promotion golden is re-recorded by `make regen`, not by a flag.
	if _, _, err := parse([]string{"calibrate", "-write"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -write") {
		t.Errorf("calibrate -write: err = %v, want an unknown-flag error", err)
	}
	// calibrate's runs record no stats, so it refuses -stats rather than
	// print an all-zero table.
	if _, _, err := parse([]string{"calibrate", "-stats"}); err == nil {
		t.Error("calibrate -stats accepted")
	}
	// calibrate always runs both engines, so it refuses a tier it would
	// ignore.
	for _, engine := range []string{experiments.EngineAnalytic, experiments.EngineAuto} {
		if _, _, err := parse([]string{"calibrate", "-engine", engine}); err == nil {
			t.Errorf("calibrate -engine %s accepted", engine)
		}
	}
	// A Table-1 budget below the largest Q fails at parse, before any
	// cell runs.
	if _, _, err := parse([]string{"future", "-fast", "-reps", "1", "-budget", "0.3"}); err == nil ||
		!strings.Contains(err.Error(), "params.budget_sec: must be >= 0.4") {
		t.Errorf("future -budget 0.3: err = %v, want params.budget_sec: must be >= 0.4", err)
	}
	// -maxproduct has the future kind's bound, checked at parse: the sweep
	// once ran below 1 and printed no rows at NaN.
	for _, bad := range []string{"0.5", "NaN"} {
		if _, _, err := parse([]string{"future", "-maxproduct", bad}); err == nil ||
			!strings.Contains(err.Error(), "params.max_product") {
			t.Errorf("future -maxproduct %s: err = %v, want a params.max_product error", bad, err)
		}
	}
	if _, c, err := parse([]string{"future", "-maxproduct", "0"}); err != nil {
		t.Error(err)
	} else if c.params.MaxProduct != 4096 {
		t.Errorf("future -maxproduct 0: max product %v, want the default 4096", c.params.MaxProduct)
	}
	// -procs has the wire bound, checked at parse.
	if _, _, err := parse([]string{"compare", "-procs", "1025"}); err == nil ||
		!strings.Contains(err.Error(), "params.procs: must be <= 1024") {
		t.Errorf("compare -procs 1025: err = %v, want params.procs: must be <= 1024", err)
	}
	if _, _, err := parse([]string{"compare", "-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	// Seed 0 means the default seed on every path, campaign or not.
	if _, c, err := parse([]string{"measure", "-seed", "0"}); err != nil {
		t.Fatal(err)
	} else if c.params.Seed != 1 {
		t.Errorf("-seed 0: params seed %d, want 1", c.params.Seed)
	}
	for _, bad := range [][]string{
		{"compare", "-procs", "0"},
		{"future", "-reps", "0"},
		{"measure", "-budget", "0"},
		{"measure", "-budget", "NaN"},
		{"trace", "-workers", "-1"},
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

// TestTraceStats pins that trace -stats totals the one run it makes,
// under its policy, instead of printing an all-zero table.
func TestTraceStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary in -short mode")
	}
	bin := buildCLIs(t, "affinitysim")["affinitysim"]
	got := runCLI(t, bin, []string{"trace", "-fast", "-mix", "5", "-window", "1", "-stats"})
	if got.code != 0 {
		t.Fatalf("trace -stats: exit %d: %s", got.code, got.stderr)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(got.stdout, "\n") {
		for _, name := range []string{"metric", "simulation runs", "reallocations"} {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				rows[name] = strings.Fields(rest)
			}
		}
	}
	if want := []string{"Dyn-Aff", "total"}; !reflect.DeepEqual(rows["metric"], want) {
		t.Errorf("stats columns %v, want %v", rows["metric"], want)
	}
	if want := []string{"1", "1"}; !reflect.DeepEqual(rows["simulation runs"], want) {
		t.Errorf("simulation runs row %v, want %v", rows["simulation runs"], want)
	}
	if r := rows["reallocations"]; len(r) != 2 || r[0] == "0" || r[0] != r[1] {
		t.Errorf("reallocations row %v, want one nonzero count in both columns", r)
	}
}
