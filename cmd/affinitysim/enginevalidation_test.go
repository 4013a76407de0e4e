package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestEngineFlagValidation is the table test for -engine across the
// subcommands: each must reject a tier its campaign kind cannot run —
// analytic/auto on the non-grid kinds, unknown names anywhere — with the
// service's "params.engine" field-path error, before any simulation
// starts. The positive cases pin that valid tiers still run, including
// on the subcommands that mix grid and non-grid kinds.
func TestEngineFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary in -short mode")
	}
	bins := buildCLIs(t, "affinitysim")

	cases := []struct {
		name    string
		cli     string
		args    []string
		wantErr string // "" = must succeed
	}{
		{"affinitysim measure rejects analytic", "affinitysim",
			[]string{"measure", "-engine", "analytic"}, "params.engine"},
		{"affinitysim characterize rejects auto", "affinitysim",
			[]string{"characterize", "-engine", "auto"}, "params.engine"},
		{"affinitysim extras rejects analytic", "affinitysim",
			[]string{"extras", "-engine", "analytic"}, "params.engine"},
		{"affinitysim trace rejects analytic", "affinitysim",
			[]string{"trace", "-engine", "analytic"}, "params.engine"},
		{"affinitysim compare rejects unknown tier", "affinitysim",
			[]string{"compare", "-engine", "bogus"}, "params.engine"},
		{"affinitysim compare accepts analytic", "affinitysim",
			[]string{"compare", "-engine", "analytic", "-fast", "-mix", "5", "-reps", "1"}, ""},
		// future and all run characterize and table1 campaigns next to
		// their compare grid; those always simulate, whatever -engine says.
		{"affinitysim future accepts analytic", "affinitysim",
			[]string{"future", "-simulate", "-engine", "analytic", "-fast", "-reps", "1", "-budget", "1"}, ""},
		{"affinitysim all accepts analytic", "affinitysim",
			[]string{"all", "-engine", "analytic", "-fast", "-reps", "1", "-budget", "1"}, ""},
		{"affinitysim measure rejects unknown tier", "affinitysim",
			[]string{"measure", "-detail", "-engine", "bogus"}, "params.engine"},
		{"affinitysim future rejects unknown tier", "affinitysim",
			[]string{"future", "-simulate", "-engine", "bogus"}, "params.engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bins[tc.cli], tc.args...).CombinedOutput()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%s %v failed: %v\n%s", tc.cli, tc.args, err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("%s %v succeeded, want failure mentioning %q", tc.cli, tc.args, tc.wantErr)
			}
			if !strings.Contains(string(out), tc.wantErr) {
				t.Fatalf("%s %v error output %q missing %q", tc.cli, tc.args, out, tc.wantErr)
			}
		})
	}
}
