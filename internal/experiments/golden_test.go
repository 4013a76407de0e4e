package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
)

// goldenCampaigns are the small, fast parameterizations whose campaign
// bodies are pinned by SHA-256 in testdata/campaign_bodies.sha256. The
// digests were recorded from the standalone per-kind drivers before they
// were folded into the cell path, so they are the byte-identity contract
// every execution path of a campaign must keep.
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

// goldenBodyDigests reads testdata/campaign_bodies.sha256: one
// "<kind> <hex sha256>" line per golden campaign.
func goldenBodyDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/campaign_bodies.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
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
// 8 workers and requires its canonical body to hash to the recorded
// digest.
func TestCampaignBodyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	want := goldenBodyDigests(t)
	for _, tc := range goldenCampaigns {
		tc := tc
		t.Run(tc.kind, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				p := tc.p
				p.Workers = workers
				res, err := Run(context.Background(), tc.kind, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := bodyDigest(t, res); got != want[tc.kind] {
					t.Errorf("workers=%d: body sha256 %s, golden %s", workers, got, want[tc.kind])
				}
			}
		})
	}
}
