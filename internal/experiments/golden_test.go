package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/version"
)

// update makes every golden test in this package write the bytes it
// would otherwise compare (`make regen`).
var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// bodyDigestsPath pins the golden campaigns' bodies: an "engine
// <version.Engine>" line, then one "<kind> <hex sha256>" line per golden
// campaign in goldenCampaigns order. `make regen` records it, and only
// under a new engine version: cell keys and the disk store are keyed by
// version.Engine, so a body whose bytes change under an unchanged version
// would let a persisted store serve the old bytes for it.
const bodyDigestsPath = "testdata/campaign_bodies.sha256"

// goldenCampaigns are the small, fast parameterizations whose campaign
// bodies are pinned by SHA-256 in bodyDigestsPath: the byte-identity
// contract every execution path of a campaign must keep.
var goldenCampaigns = []struct {
	kind string
	p    CampaignParams
}{
	{"characterize", CampaignParams{Fast: true, Replications: 1}},
	{"table1", CampaignParams{Fast: true, BudgetSec: 0.5}},
	{"compare", CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition", "Dyn-Aff"}}},
	{"future", CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Policies: []string{"Dynamic"}}},
	{"futuresim", CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Dynamic"}, Products: []float64{1, 4}}},
	{"relatedwork", CampaignParams{Fast: true, Replications: 1}},
}

// parseBodyDigests reads a digests file into the engine version it was
// recorded under and one digest per kind.
func parseBodyDigests(data []byte) (engine string, sums map[string]string, err error) {
	sums = make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return "", nil, fmt.Errorf("malformed digest line %q", sc.Text())
		}
		if fields[0] == "engine" {
			engine = fields[1]
		} else {
			sums[fields[0]] = fields[1]
		}
	}
	if engine == "" {
		return "", nil, fmt.Errorf("no engine line")
	}
	return engine, sums, sc.Err()
}

// formatBodyDigests renders a digests file: the engine line, then sums
// in goldenCampaigns order.
func formatBodyDigests(engine string, sums map[string]string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "engine %s\n", engine)
	for _, tc := range goldenCampaigns {
		fmt.Fprintf(&b, "%s %s\n", tc.kind, sums[tc.kind])
	}
	return b.Bytes()
}

// recordBodyDigests decides what TestCampaignBodyGoldens does with the
// digests of the campaigns it ran (sums; a -run filter may skip some)
// against the recorded file under the current engine version. It returns
// the file to write, nil for none, or the error to fail with. Without
// update, the file must have been recorded under engine and hold sums.
// With update, a file recorded under another engine version is replaced;
// under the same version, a changed digest is refused: bytes may change
// only with a version.Engine bump.
func recordBodyDigests(recorded []byte, sums map[string]string, engine string, update bool) ([]byte, error) {
	recEngine, recSums, err := parseBodyDigests(recorded)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", bodyDigestsPath, err)
	}
	if recEngine != engine && !update {
		return nil, fmt.Errorf("%s was recorded under engine %s, but version.Engine is %s: re-record it with make regen",
			bodyDigestsPath, recEngine, engine)
	}
	next := make(map[string]string, len(goldenCampaigns))
	var changed []string
	for _, tc := range goldenCampaigns {
		sum, ran := sums[tc.kind]
		rec, ok := recSums[tc.kind]
		switch {
		case !ran && update:
			return nil, fmt.Errorf("-update records every golden campaign, but %s did not run", tc.kind)
		case !ran:
			sum = rec
		case ok && sum != rec:
			changed = append(changed, fmt.Sprintf("%s: body sha256 %s, golden %s", tc.kind, sum, rec))
		}
		next[tc.kind] = sum
	}
	want := formatBodyDigests(engine, next)
	switch {
	case recEngine != engine:
		return want, nil
	case len(changed) > 0 && update:
		return nil, fmt.Errorf("campaign bodies changed under an unchanged version.Engine %s; bump version.Engine to record them:\n%s",
			engine, strings.Join(changed, "\n"))
	case len(changed) > 0:
		return nil, fmt.Errorf("campaign bodies differ from %s; a byte change needs a version.Engine bump and make regen:\n%s",
			bodyDigestsPath, strings.Join(changed, "\n"))
	case bytes.Equal(recorded, want):
		return nil, nil
	case update:
		return want, nil // a golden campaign added or dropped; no recorded digest changed
	default:
		return nil, fmt.Errorf("%s does not list exactly the golden campaigns; re-record it with make regen", bodyDigestsPath)
	}
}

// goldenBodyDigests returns the recorded digest of each golden campaign.
func goldenBodyDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(bodyDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	_, sums, err := parseBodyDigests(data)
	if err != nil {
		t.Fatalf("%s: %v", bodyDigestsPath, err)
	}
	return sums
}

func bodyDigest(t *testing.T, res any) string {
	t.Helper()
	b, err := report.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCampaignBodyGoldens runs every golden campaign through Run at 1 and
// 8 workers, requires both bodies to hash alike, and holds the digests to
// bodyDigestsPath through recordBodyDigests.
func TestCampaignBodyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	recorded, err := os.ReadFile(bodyDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(goldenCampaigns))
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		sums := make(map[string]string, len(got))
		for i, tc := range goldenCampaigns {
			if got[i] != "" {
				sums[tc.kind] = got[i]
			}
		}
		write, err := recordBodyDigests(recorded, sums, version.Engine, *update)
		if err != nil {
			t.Error(err)
		} else if write != nil {
			if err := os.WriteFile(bodyDigestsPath, write, 0o644); err != nil {
				t.Error(err)
			}
		}
	})
	for i, tc := range goldenCampaigns {
		i, tc := i, tc
		t.Run(tc.kind, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				p := tc.p
				p.Workers = workers
				res, err := Run(context.Background(), tc.kind, p)
				if err != nil {
					t.Fatal(err)
				}
				sum := bodyDigest(t, res)
				if workers == 1 {
					got[i] = sum
				} else if sum != got[i] {
					t.Errorf("workers=%d: body sha256 %s, workers=1 %s", workers, sum, got[i])
				}
			}
		})
	}
}

// TestRecordBodyDigests drives the engine guard on hand-built digests;
// nothing is run.
func TestRecordBodyDigests(t *testing.T) {
	sums := func(tag string) map[string]string {
		m := make(map[string]string)
		for _, tc := range goldenCampaigns {
			m[tc.kind] = tag + tc.kind
		}
		return m
	}
	recorded := formatBodyDigests("3", sums("a"))
	cases := []struct {
		name    string
		sums    map[string]string
		engine  string
		update  bool
		write   []byte
		wantErr string // substring of the error; "" = no error
	}{
		{name: "same version, same digests", sums: sums("a"), engine: "3"},
		{name: "same version, same digests, update", sums: sums("a"), engine: "3", update: true},
		{name: "same version, changed digests", sums: sums("b"), engine: "3",
			wantErr: "needs a version.Engine bump and make regen"},
		{name: "same version, changed digests, update", sums: sums("b"), engine: "3", update: true,
			wantErr: "unchanged version.Engine 3"},
		{name: "moved version", sums: sums("a"), engine: "4",
			wantErr: "recorded under engine 3, but version.Engine is 4: re-record it with make regen"},
		{name: "moved version, update", sums: sums("b"), engine: "4", update: true,
			write: formatBodyDigests("4", sums("b"))},
		// A -run filter that skips campaigns checks the rest, but cannot
		// record.
		{name: "one campaign run", sums: map[string]string{"table1": "atable1"}, engine: "3"},
		{name: "one campaign changed", sums: map[string]string{"table1": "btable1"}, engine: "3",
			wantErr: "table1: body sha256 btable1, golden atable1"},
		{name: "one campaign run, update", sums: map[string]string{"table1": "btable1"}, engine: "4", update: true,
			wantErr: "-update records every golden campaign, but characterize did not run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			write, err := recordBodyDigests(recorded, c.sums, c.engine, c.update)
			if c.wantErr == "" && err != nil {
				t.Fatalf("error %v, want none", err)
			}
			if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("error %v, want it to contain %q", err, c.wantErr)
			}
			if !bytes.Equal(write, c.write) {
				t.Errorf("writes %q, want %q", write, c.write)
			}
		})
	}
	if got := formatBodyDigests("4", sums("b")); !strings.HasPrefix(string(got), "engine 4\ncharacterize bcharacterize\n") {
		t.Errorf("recorded file starts %q, want the engine line first", got)
	}
	if _, _, err := parseBodyDigests([]byte("characterize abc\n")); err == nil {
		t.Error("digests without an engine line accepted")
	}
}

// TestPromotionGolden re-runs the calibration grid on both engines and
// requires its table to be the checked-in promotion golden byte for byte,
// which also pins the grid's coordinates; under -update it records the
// table as the golden.
func TestPromotionGolden(t *testing.T) {
	const path = "../analytic/promotion.json"
	coords := make(map[string]bool)
	for _, c := range CalibrationGrid() {
		if coords[c.Coord] {
			t.Errorf("duplicate calibration coordinate %s", c.Coord)
		}
		coords[c.Coord] = true
	}
	if testing.Short() {
		t.Skip("calibration runs in -short mode")
	}
	cal, err := Calibrate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(cal.Table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("calibration table differs from %s; re-record it with make regen", path)
	}
}
