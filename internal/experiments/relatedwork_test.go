package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRelatedWorkShape(t *testing.T) {
	r := mustRun(t, context.Background(), "relatedwork", CampaignParams{Fast: true}).(RelatedWorkCampaignResult).Result
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]RelatedWorkRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
		if row.MeanRT <= 0 {
			t.Errorf("%s: non-positive mean RT", row.Policy)
		}
	}
	// Affinity lifts %affinity in both domains.
	if byName["TimeShare-Aff"].PctAffinity <= byName["TimeShare-RR"].PctAffinity {
		t.Errorf("TS affinity %%: %v <= %v",
			byName["TimeShare-Aff"].PctAffinity, byName["TimeShare-RR"].PctAffinity)
	}
	// The Section-8 claim, at the mechanism level: affinity eliminates a
	// substantial fraction of time sharing's miss stalls (its reallocation
	// rate is high and every quantum expiry is involuntary). The
	// response-time gains themselves are small in both domains on
	// current-technology machines, so they are reported but not asserted.
	if r.TimeSharingMissGain < 0.15 {
		t.Errorf("time-sharing miss-stall gain %.4f, want substantial", r.TimeSharingMissGain)
	}
	// And affinity cuts miss stalls under time sharing.
	if byName["TimeShare-Aff"].MissSec >= byName["TimeShare-RR"].MissSec {
		t.Errorf("TS-Aff miss stall %v not below TS-RR %v",
			byName["TimeShare-Aff"].MissSec, byName["TimeShare-RR"].MissSec)
	}
	var b strings.Builder
	tbl := RelatedWorkTable(r)
	if err := tbl.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "TimeShare-Aff") {
		t.Error("table missing policy row")
	}
}

func TestMPLSweep(t *testing.T) {
	opts := FastOptions()
	opts.Replications = 1
	policies := []string{"Equipartition", "Dyn-Aff"}
	pts, err := MPLSweep(context.Background(), opts, 3, policies)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		for _, p := range policies {
			if pt.MeanRT[p] <= 0 {
				t.Errorf("k=%d %s: non-positive RT", pt.Jobs, p)
			}
		}
	}
	// Response time grows with multiprogramming level.
	if pts[2].MeanRT["Dyn-Aff"] <= pts[0].MeanRT["Dyn-Aff"] {
		t.Errorf("RT did not grow with MPL: %v vs %v",
			pts[2].MeanRT["Dyn-Aff"], pts[0].MeanRT["Dyn-Aff"])
	}
	// At k=1 the policies coincide (a lone job owns the machine).
	solo := pts[0]
	ratio := solo.MeanRT["Dyn-Aff"] / solo.MeanRT["Equipartition"]
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("single-job policies diverge: ratio %.3f", ratio)
	}
	var b strings.Builder
	mt := MPLTable(pts, policies)
	if err := mt.Write(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := MPLSweep(context.Background(), opts, 0, policies); err == nil {
		t.Error("maxJobs 0 accepted")
	}
}
