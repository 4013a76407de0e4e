package main

import (
	"strings"
	"testing"
)

// table1Line is a real `go test -bench -benchmem` line of
// BenchmarkTable1: its b.ReportMetric columns sit between ns/op and the
// -benchmem columns.
const table1Line = "BenchmarkTable1-2   \t       1\t2362011777 ns/op\t      1089 PA-MAT-vs-MVA-Q400-us\t      2289 PNA-GRAV-Q400-us\t       986.4 PNA-MVA-Q25-us\t      2305 PNA-MVA-Q400-us\t594897520 B/op\t    2717 allocs/op"

func TestParseBenchCustomMetrics(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		table1Line,
		"BenchmarkCacheAccess-2   \t 5000000\t       12.5 ns/op\t     0 B/op\t       0 allocs/op",
		"BenchmarkNoMem   \t     100\t      3000 ns/op",
		"BenchmarkBroken-2   \t--- FAIL: BenchmarkBroken",
		"PASS",
	}, "\n")
	got, procs, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if procs != "2" {
		t.Errorf("procs = %q, want 2", procs)
	}
	want := map[string]Result{
		"BenchmarkTable1":      {Iterations: 1, NsPerOp: 2362011777, BPerOp: 594897520, AllocsPerOp: 2717},
		"BenchmarkCacheAccess": {Iterations: 5000000, NsPerOp: 12.5},
		"BenchmarkNoMem":       {Iterations: 100, NsPerOp: 3000},
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

func TestParseBenchNoResults(t *testing.T) {
	if _, _, err := parseBench(strings.NewReader("PASS\nok  \trepro\t1.0s\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}
