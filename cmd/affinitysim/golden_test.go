package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update makes every golden test in this package write the bytes it
// would otherwise compare (`make regen`).
var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// cliGoldens pins the campaign CLI's observable behaviour: stdout,
// stderr and exit code of each invocation, recorded under
// testdata/golden/<name>.{stdout,stderr,code}. Every case is replayed at
// -workers 1 and -workers 4 and must match byte for byte; under -update
// the -workers 1 run is recorded, and the -workers 4 run must equal it.
var cliGoldens = []struct {
	name string
	args []string
}{
	{"affinitysim_characterize_fast", []string{"characterize", "-fast"}},
	{"affinitysim_measure_fast_budget4", []string{"measure", "-fast", "-budget", "4"}},
	{"affinitysim_measure_budget4_detail", []string{"measure", "-budget", "4", "-detail"}},
	{"affinitysim_compare_fast_reps2_csv_timeshare_stats", []string{"compare", "-fast", "-reps", "2", "-csv", "-timeshare", "-stats"}},
	{"affinitysim_compare_fast_reps2_timeshare", []string{"compare", "-fast", "-reps", "2", "-timeshare"}},
	{"affinitysim_compare_fast_mix5_workers1", []string{"compare", "-fast", "-mix", "5", "-workers", "1"}},
	// Mix 3 under Dyn-Aff-Delay deadlocks at replication 4: the golden
	// keeps that defect visible (exit 1, the scheduler's error on stderr).
	{"affinitysim_compare_fast", []string{"compare", "-fast"}},
	{"affinitysim_future_fast_reps2_budget4_stats", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-stats"}},
	{"affinitysim_future_fast_reps2_budget4_csv", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-csv"}},
	{"affinitysim_future_fast_reps2_budget4_simulate", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-simulate"}},
	{"affinitysim_extras_fast", []string{"extras", "-fast"}},
}

// cliResult is one invocation's observable behaviour.
type cliResult struct {
	stdout, stderr string
	code           int
}

func runCLI(t *testing.T, bin string, args []string) cliResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = exit.ExitCode()
	}
	return cliResult{stdout.String(), stderr.String(), code}
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+"."+ext)
}

func readGolden(t *testing.T, name string) cliResult {
	t.Helper()
	read := func(ext string) string {
		b, err := os.ReadFile(goldenPath(name, ext))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	code, err := strconv.Atoi(strings.TrimSpace(read("code")))
	if err != nil {
		t.Fatal(err)
	}
	return cliResult{read("stdout"), read("stderr"), code}
}

func writeGolden(t *testing.T, name string, r cliResult) {
	t.Helper()
	for ext, data := range map[string]string{"stdout": r.stdout, "stderr": r.stderr, "code": strconv.Itoa(r.code) + "\n"} {
		if err := os.WriteFile(goldenPath(name, ext), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff describes where two outputs first diverge.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "identical"
}

func buildCLIs(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, cli := range names {
		bin := filepath.Join(dir, cli)
		build := exec.Command("go", "build", "-o", bin, "../"+cli)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cli, err, out)
		}
		bins[cli] = bin
	}
	return bins
}

func TestCLIGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every golden campaign twice")
	}
	bin := buildCLIs(t, "affinitysim")["affinitysim"]
	for _, tc := range cliGoldens {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers string) cliResult {
				return runCLI(t, bin, append(append([]string(nil), tc.args...), "-workers", workers))
			}
			var want cliResult
			replay := []string{"1", "4"}
			if *update {
				want, replay = run("1"), replay[1:]
			} else {
				want = readGolden(t, tc.name)
			}
			for _, workers := range replay {
				got := run(workers)
				if got.code != want.code {
					t.Errorf("workers=%s: exit code %d, golden %d (stderr %q)", workers, got.code, want.code, got.stderr)
				}
				if got.stderr != want.stderr {
					t.Errorf("workers=%s: stderr differs from golden: %s", workers, firstDiff(got.stderr, want.stderr))
				}
				if got.stdout != want.stdout {
					t.Errorf("workers=%s: stdout differs from golden: %s", workers, firstDiff(got.stdout, want.stdout))
				}
			}
			if *update && !t.Failed() {
				writeGolden(t, tc.name, want)
			}
		})
	}
}

// TestCLIGoldenFilesHaveCases: every file under testdata/golden belongs
// to a case of cliGoldens, so a renamed or dropped case leaves no stale
// golden that -update would never rewrite.
func TestCLIGoldenFilesHaveCases(t *testing.T) {
	want := make(map[string]bool)
	for _, tc := range cliGoldens {
		for _, ext := range []string{"stdout", "stderr", "code"} {
			want[filepath.Base(goldenPath(tc.name, ext))] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("testdata/golden/%s belongs to no case of cliGoldens", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("testdata/golden/%s is missing; record it with make regen", name)
	}
}
