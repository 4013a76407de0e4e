package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// tiny runs every workload with a quarter-second window, on a one-seed
// catalogue and a single set-up.
var tiny = sizing{seconds: 0.25, catalogueSeeds: 1, table1Seeds: 0, setups: 1}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestGeneratorFingerprint(t *testing.T) {
	for _, w := range workloadNames {
		fp := func(seed uint64) string {
			in, err := generate(w, seed, tiny)
			if err != nil {
				t.Fatal(err)
			}
			return in.fingerprint()
		}
		if a, b := fp(1), fp(1); a != b {
			t.Errorf("%s: seed 1 fingerprints differ: %s vs %s", w, a, b)
		}
		if fp(1) == fp(2) {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w)
		}
	}
}

// TestWorkloadsSmoke runs each workload untraced and traced at tiny
// scale, and requires every metric BENCHMARK.json names, with its unit,
// no failed request or check, and the trace files.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	traceDir, workDir := t.TempDir(), t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				rec, _, err := runWorkload(w, 7, tiny, trace, traceDir, workDir, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
					if _, err := os.Stat(filepath.Join(traceDir, w+".trace.json")); err != nil {
						t.Error(err)
					}
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s = %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
