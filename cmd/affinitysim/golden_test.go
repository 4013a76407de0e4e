package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
)

// cliGoldens pins the campaign CLI's observable behaviour: stdout,
// stderr and exit code of each invocation, recorded under
// testdata/golden/<name>.{stdout,stderr,code}. Every case is replayed at
// -workers 1 and -workers 4 and must match byte for byte. The
// policycompare, futuremodel and measurepenalty goldens were recorded
// from those standalone CLIs before they were folded into affinitysim;
// each is reproduced by the affinitysim invocation listed with it,
// spelling out the flags whose defaults differed (futuremodel -fast used
// a 4 s Table-1 budget). adjust, where set, undoes a deliberate layout
// difference before the comparison — see the adjusters below.
var cliGoldens = []struct {
	name   string
	args   []string
	adjust func(t *testing.T, stdout string) string
}{
	{"affinitysim_characterize_fast", []string{"characterize", "-fast"}, nil},
	{"affinitysim_measure_fast_budget4", []string{"measure", "-fast", "-budget", "4"}, nil},
	{"affinitysim_compare_fast_reps2_csv_timeshare_stats", []string{"compare", "-fast", "-reps", "2", "-csv", "-timeshare", "-stats"}, nil},
	{"affinitysim_compare_fast_mix5_workers1", []string{"compare", "-fast", "-mix", "5", "-workers", "1"}, nil},
	// Mix 3 under Dyn-Aff-Delay deadlocks at replication 4: the golden
	// keeps that defect visible (exit 1, the scheduler's error on stderr).
	{"affinitysim_compare_fast", []string{"compare", "-fast"}, nil},
	{"affinitysim_future_fast_reps2_budget4_stats", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-stats"}, stripCrossovers},
	{"affinitysim_extras_fast", []string{"extras", "-fast"}, nil},
	{"policycompare_fast_reps2_timeshare", []string{"compare", "-fast", "-reps", "2", "-timeshare"}, foldTimeShareColumn},
	{"futuremodel_fast_reps2", []string{"future", "-fast", "-reps", "2", "-budget", "4"}, nil},
	{"futuremodel_fast_reps2_csv", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-csv"}, nil},
	{"futuremodel_fast_reps2_simulate", []string{"future", "-fast", "-reps", "2", "-budget", "4", "-simulate"}, nil},
	{"measurepenalty_budget4_detail", []string{"measure", "-budget", "4", "-detail"}, nil},
}

// stripCrossovers removes the crossover table that affinitysim future
// gained from futuremodel. The table itself must be present and identical
// to the one in futuremodel's golden, which printed it after the same
// charts.
func stripCrossovers(t *testing.T, stdout string) string {
	t.Helper()
	fm := readGolden(t, "futuremodel_fast_reps2").stdout
	i := strings.Index(fm, "Crossover products")
	if i < 0 {
		t.Fatal("futuremodel golden has no crossover table")
	}
	table := fm[i:]
	if !strings.Contains(stdout, table) {
		t.Fatalf("future output lacks futuremodel's crossover table:\n%s", table)
	}
	return strings.Replace(stdout, table, "", 1)
}

// foldTimeShareColumn rewrites affinitysim compare -timeshare output into
// policycompare's layout, which showed TimeShare-RR as a fourth Figure 5
// column: affinitysim prints the same numbers as its own "Extra —
// TimeShare-RR" table, the third block.
func foldTimeShareColumn(t *testing.T, stdout string) string {
	t.Helper()
	blocks := strings.Split(stdout, "\n\n")
	if len(blocks) < 3 || !strings.HasPrefix(blocks[2], "Extra — TimeShare-RR") {
		t.Fatalf("compare -timeshare output lacks the TimeShare-RR table:\n%s", stdout)
	}
	parse := func(block string) report.Table {
		lines := strings.Split(block, "\n")
		tab := report.Table{Title: lines[0], Headers: strings.Fields(lines[1])}
		for _, l := range lines[3:] {
			tab.Rows = append(tab.Rows, strings.Fields(l))
		}
		return tab
	}
	fig5, extra := parse(blocks[0]), parse(blocks[2])
	if len(fig5.Rows) != len(extra.Rows) {
		t.Fatalf("Figure 5 has %d rows, the TimeShare-RR table %d", len(fig5.Rows), len(extra.Rows))
	}
	fig5.Headers = append(fig5.Headers, extra.Headers[2])
	for i := range fig5.Rows {
		if fig5.Rows[i][0] != extra.Rows[i][0] || fig5.Rows[i][1] != extra.Rows[i][1] {
			t.Fatalf("row %d: Figure 5 job %v, TimeShare-RR job %v", i, fig5.Rows[i][:2], extra.Rows[i][:2])
		}
		fig5.Rows[i] = append(fig5.Rows[i], extra.Rows[i][2])
	}
	var b strings.Builder
	if err := fig5.Write(&b); err != nil {
		t.Fatal(err)
	}
	blocks[0] = strings.TrimSuffix(b.String(), "\n")
	return strings.Join(append(blocks[:2], blocks[3:]...), "\n\n")
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

func readGolden(t *testing.T, name string) cliResult {
	t.Helper()
	read := func(ext string) string {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+"."+ext))
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
			want := readGolden(t, tc.name)
			for _, workers := range []string{"1", "4"} {
				got := runCLI(t, bin, append(append([]string(nil), tc.args...), "-workers", workers))
				if tc.adjust != nil && got.code == 0 {
					got.stdout = tc.adjust(t, got.stdout)
				}
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
		})
	}
}
