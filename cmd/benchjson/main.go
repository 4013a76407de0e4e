// benchjson converts `go test -bench -benchmem` output on stdin into a
// machine-readable JSON perf baseline: benchmark name -> ns/op, B/op,
// allocs/op. The Makefile's bench-json target pipes the cache/replay/
// campaign benchmarks through it to produce BENCH_cache.json, the
// committed baseline future PRs diff against.
//
// With -check, benchjson instead compares the benchmarks on stdin against
// an existing baseline and fails when any benchmark's B/op or allocs/op
// exceeds its baseline ceiling — the allocation regression gate wired into
// `make ci` via bench-check. Wall-clock (ns/op) is reported as a ratio
// against the baseline but never gated: it varies with the host, while
// allocation counts are properties of the code.
//
// The GOMAXPROCS suffix (-16) is stripped from names so baselines compare
// across machines; the parallelism used, the git revision, and the engine
// version are recorded once under "_meta" so a committed baseline says
// exactly which code produced it. Writing a baseline from a dirty working
// tree is refused (override with -allow-dirty): a baseline whose recorded
// SHA does not identify the measured code is worse than none.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/version"
)

// Result is one benchmark's parsed measurements. Zero-valued fields were
// absent from the input line (e.g. B/op without -benchmem).
type Result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Ceiling slack for -check: a fresh measurement may exceed the baseline by
// the relative slack plus a small absolute allowance (which keeps
// near-zero baselines from flaking on a single extra allocation) without
// failing the gate. A real regression — the kind the gate exists for —
// blows through both.
const (
	relSlack    = 0.25
	absSlackB   = 2048
	absSlackAll = 16
)

// benchLine matches `BenchmarkName-N  iters  <value unit>...`; the
// measurements follow as whitespace-separated value–unit pairs, in an
// order that depends on the benchmark: b.ReportMetric's custom units sort
// between ns/op and the -benchmem columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	check := flag.String("check", "", "baseline JSON to compare stdin against instead of writing")
	allowDirty := flag.Bool("allow-dirty", false, "permit writing a baseline from a dirty working tree")
	flag.Parse()
	var err error
	if *check != "" {
		err = runCheck(*check)
	} else {
		err = runWrite(*out, *allowDirty)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output, returning parsed results and
// the GOMAXPROCS the benchmarks ran at.
func parseBench(r io.Reader) (map[string]Result, string, error) {
	results := make(map[string]Result)
	procs := "1" // go test omits the -N name suffix when GOMAXPROCS is 1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r, ok := parseMeasurements(m[4])
		if !ok {
			continue
		}
		r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		if m[2] != "" {
			procs = m[2]
		}
		results[m[1]] = r
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if len(results) == 0 {
		return nil, "", fmt.Errorf("no benchmark lines found on stdin")
	}
	return results, procs, nil
}

// parseMeasurements reads the value–unit pairs of one benchmark line into
// a Result, wherever ns/op, B/op and allocs/op sit among them. A line
// without an ns/op pair is not a result line.
func parseMeasurements(s string) (Result, bool) {
	var r Result
	hasNs := false
	f := strings.Fields(s)
	for i := 0; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, hasNs = v, true
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, hasNs
}

func runWrite(out string, allowDirty bool) error {
	sha := version.GitSHA()
	if strings.HasSuffix(sha, "-dirty") && !allowDirty {
		return fmt.Errorf("refusing to write a baseline from a dirty working tree (%s); commit first or pass -allow-dirty", sha)
	}
	parsed, procs, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	results := make(map[string]any, len(parsed)+1)
	for name, r := range parsed {
		results[name] = r
	}
	results["_meta"] = map[string]string{
		"gomaxprocs":     procs,
		"git_sha":        sha,
		"engine_version": version.Engine,
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// runCheck compares the benchmarks on stdin against the baseline file and
// fails when any shared benchmark exceeds its B/op or allocs/op ceiling.
// Wall-clock is printed as a fresh/baseline time-per-op ratio alongside the
// gated columns, purely for the reader: a 3x allocation-neutral slowdown
// should be visible in ci output even though only allocations can fail it.
func runCheck(baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline map[string]json.RawMessage
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	fresh, _, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	compared := 0
	var failures []string
	for _, name := range names {
		got := fresh[name]
		rawBase, ok := baseline[name]
		if !ok || name == "_meta" {
			continue
		}
		var base Result
		if err := json.Unmarshal(rawBase, &base); err != nil {
			return fmt.Errorf("baseline entry %s: %w", name, err)
		}
		compared++
		ceilB := base.BPerOp*(1+relSlack) + absSlackB
		ceilA := base.AllocsPerOp*(1+relSlack) + absSlackAll
		status := "ok"
		if got.BPerOp > ceilB || got.AllocsPerOp > ceilA {
			status = "FAIL"
			failures = append(failures, name)
		}
		timeRatio := "time n/a"
		if base.NsPerOp > 0 {
			timeRatio = fmt.Sprintf("time %5.2fx", got.NsPerOp/base.NsPerOp)
		}
		fmt.Printf("%-4s %-40s %12.0f B/op (ceiling %12.0f)  %9.0f allocs/op (ceiling %9.0f)  %s\n",
			status, name, got.BPerOp, ceilB, got.AllocsPerOp, ceilA, timeRatio)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks on stdin matched the baseline")
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation ceilings exceeded: %s", strings.Join(failures, ", "))
	}
	fmt.Printf("bench-check: %d benchmark(s) within allocation ceilings (time ratios informational)\n", compared)
	return nil
}
