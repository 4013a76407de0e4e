// Command affinitybench is the repository's end-to-end benchmark. It boots
// affinityd's serving core in process, on real loopback listeners, drives
// one of four seeded workloads at it over at most two client connections,
// checks every response it is meant to against an independently computed
// reference, and prints each metric as "workload metric value unit",
// then one JSON line with the result.
//
// Usage:
//
//	affinitybench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	              [-trace-dir DIR] [-work-dir DIR] [-json FILE]
//	affinitybench -compare [-benchmark BENCHMARK.json] A.json... -- B.json...
//	affinitybench -saturate -workload warm-hit|disk-restart [-seed N] [-seconds S]
//
// With -trace 0 a run reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it reports the per-layer metrics instead, from a traced
// rerun and a layer-by-layer replay of half the window, and writes
// DIR/<workload>.trace.json (Chrome trace-event format; open it in
// Perfetto) and DIR/layers.json (each layer's self time). README.md
// describes the workloads, the metrics and the comparison procedure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/version"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// record is one run as -json writes it and -compare reads it.
type record struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         int     `json:"trace"`
	GitSHA        string  `json:"git_sha"`
	EngineVersion string  `json:"engine_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	Fingerprint   string  `json:"fingerprint"`
	Result        result  `json:"result"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("affinitybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: cold-sim, warm-hit, disk-restart, fleet, or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where -trace 1 writes its trace files")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "scratch space for disk stores")
	jsonOut := fs.String("json", "", "write each run's record (build, inputs fingerprint, result) to this file")
	compare := fs.Bool("compare", false, "compare run records: -compare A.json... -- B.json...")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "bounds and directions for -compare")
	saturate := fs.Bool("saturate", false, "find the open-loop -workload's saturation rate, with -seconds per step")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), *benchFile, stdout); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
		return 0
	}
	if *saturate {
		if err := runSaturate(*workload, *seed, *seconds, *workDir, stdout); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "affinitybench: want -trace 0 or 1, -seconds > 0 and no arguments")
		return 2
	}
	var records []record
	// layers.json keeps the other workloads' entries, so one-workload runs
	// accumulate into a single file.
	layersPath := filepath.Join(*traceDir, "layers.json")
	layers := map[string]json.RawMessage{}
	if b, err := os.ReadFile(layersPath); err == nil {
		json.Unmarshal(b, &layers)
	}
	code := 0
	for _, name := range names {
		rec, sections, err := runWorkload(name, *seed, defaultSizing(*seconds), *trace == 1, *traceDir, *workDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "affinitybench: %s: %v\n", name, err)
			return 1
		}
		printResult(stdout, name, rec.Result)
		if !rec.Result.Correct {
			code = 1
		}
		records = append(records, rec)
		if sections != nil {
			b, err := json.Marshal(sections)
			if err != nil {
				fmt.Fprintln(stderr, "affinitybench:", err)
				return 1
			}
			layers[name] = b
		}
	}
	if *trace == 1 {
		if err := writeJSON(layersPath, layers); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := writeRecords(*jsonOut, records); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
	}
	return code
}

// newRun generates a workload's inputs and prepares one run of them, with
// its own scratch directory under workDir; done removes it.
func newRun(name string, seed uint64, sz sizing, workDir string, stderr io.Writer) (r *run, done func(), err error) {
	in, err := generate(name, seed, sz)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return nil, nil, err
	}
	client := newLoadClient()
	done = func() {
		client.CloseIdleConnections()
		os.RemoveAll(dir)
	}
	return &run{in: in, sz: sz, workDir: dir, client: client, oracle: newOracle(), stderr: stderr}, done, nil
}

// runWorkload generates a workload's inputs and runs it once.
func runWorkload(name string, seed uint64, sz sizing, trace bool, traceDir, workDir string, stderr io.Writer) (record, map[string]map[string]layerTime, error) {
	r, done, err := newRun(name, seed, sz, workDir, stderr)
	if err != nil {
		return record{}, nil, err
	}
	defer done()
	in := r.in
	var sections map[string]map[string]layerTime
	if trace {
		sections, err = r.traced(traceDir)
	} else {
		_, err = r.e2e()
	}
	if err != nil {
		return record{}, nil, err
	}
	r.res.Correct = r.res.Failed == 0
	traceFlag := 0
	if trace {
		traceFlag = 1
	}
	return record{
		Workload: name, Seed: seed, Seconds: sz.seconds, Trace: traceFlag,
		GitSHA: version.GitSHA(), EngineVersion: version.Engine,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Fingerprint: in.fingerprint(), Result: r.res,
	}, sections, nil
}

// printResult prints one line per metric, then the result as JSON.
func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	b, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeRecords writes one JSON record per line.
func writeRecords(path string, recs []record) error {
	var b []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	return os.WriteFile(path, b, 0o644)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var rec record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
}
