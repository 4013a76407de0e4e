package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/report"
)

func TestCampaignRegistryKinds(t *testing.T) {
	want := []string{"characterize", "table1", "compare", "future", "futuresim", "relatedwork"}
	got := Campaigns()
	if len(got) != len(want) {
		t.Fatalf("got %d campaigns, want %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Kind != want[i] {
			t.Errorf("campaign %d: got kind %q, want %q", i, c.Kind, want[i])
		}
		if c.Description == "" {
			t.Errorf("campaign %q has no description", c.Kind)
		}
		byKind, ok := CampaignByKind(c.Kind)
		if !ok || byKind.Kind != c.Kind {
			t.Errorf("CampaignByKind(%q) = %v, %v", c.Kind, byKind.Kind, ok)
		}
	}
	if _, ok := CampaignByKind("nonsense"); ok {
		t.Error("CampaignByKind accepted an unknown kind")
	}
}

func TestCampaignNormalizeDefaults(t *testing.T) {
	c, _ := CampaignByKind("compare")
	n, err := c.Normalize(CampaignParams{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Seed != 1 || n.Procs != 16 || n.Replications != 5 || n.AppScale != 1 {
		t.Errorf("unexpected defaults: %+v", n)
	}
	if len(n.Policies) == 0 {
		t.Error("compare normalization left the policy list empty")
	}
	// Normalization is idempotent, so semantically identical requests
	// (zero-value vs spelled-out defaults) share one cache identity.
	n2, err := c.Normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := report.CanonicalJSON(n)
	b, _ := report.CanonicalJSON(n2)
	if !bytes.Equal(a, b) {
		t.Errorf("normalization not idempotent:\n%s\n%s", a, b)
	}
	// An explicitly-spelled default request normalizes to the same bytes.
	n3, err := c.Normalize(CampaignParams{Seed: 1, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	cjson, _ := report.CanonicalJSON(n3)
	if !bytes.Equal(a, cjson) {
		t.Errorf("equivalent requests normalize differently:\n%s\n%s", a, cjson)
	}
}

func TestCampaignNormalizeZeroesIrrelevantFields(t *testing.T) {
	c, _ := CampaignByKind("table1")
	n, err := c.Normalize(CampaignParams{Mix: 5, MaxProduct: 64, Policies: []string{"Dyn-Aff"}, Products: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Mix != 0 || n.MaxProduct != 0 || n.Policies != nil || n.Products != nil {
		t.Errorf("table1 normalization kept irrelevant fields: %+v", n)
	}
	if n.BudgetSec != 20 {
		t.Errorf("table1 budget default: got %v, want 20", n.BudgetSec)
	}
	// A parameter the kind never reads must not fork its body cache key:
	// table1 measures on one processor, and characterize runs each
	// application once.
	for _, tc := range []struct {
		kind string
		p    CampaignParams
	}{
		{"table1", CampaignParams{Procs: 4}},
		{"characterize", CampaignParams{Replications: 3}},
	} {
		c, _ := CampaignByKind(tc.kind)
		got, err := c.Normalize(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Normalize(CampaignParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v normalized to %+v, want %+v", tc.kind, tc.p, got, want)
		}
	}
}

func TestCampaignNormalizeRejectsBadParams(t *testing.T) {
	cases := []struct {
		kind string
		p    CampaignParams
	}{
		{"compare", CampaignParams{Mix: 99}},
		{"compare", CampaignParams{Policies: []string{"NoSuchPolicy"}}},
		{"futuresim", CampaignParams{Products: []float64{0.5}}},
		{"future", CampaignParams{MaxProduct: 0.25}},
		{"table1", CampaignParams{Procs: -1}},
		{"table1", CampaignParams{BudgetSec: 0.01}}, // below the largest Q
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), tc.kind, tc.p); err == nil {
			t.Errorf("%s %+v: expected an error", tc.kind, tc.p)
		}
	}
	// Over the bound, the budget is refused up front, before a stream of
	// its size is allocated.
	for _, kind := range []string{"table1", "future"} {
		_, err := Run(context.Background(), kind, CampaignParams{BudgetSec: 1e6})
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != "params.budget_sec" {
			t.Errorf("%s with budget_sec 1e6: err = %v, want a params.budget_sec ParamError", kind, err)
		}
	}
	if _, err := Cells("table1", CampaignParams{BudgetSec: maxBudgetSec}); err != nil {
		t.Errorf("budget_sec at the bound refused: %v", err)
	}
}

// fastCampaignParams is a scaled-down parameterization cheap enough for
// unit tests.
func fastCampaignParams() CampaignParams {
	return CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Workers: 2}
}

// TestCampaignRunDeterministicJSON runs the cheap kinds twice through Run
// and asserts the canonical encodings match byte for byte — the property
// the service's result cache relies on.
func TestCampaignRunDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	for _, kind := range []string{"characterize", "relatedwork"} {
		enc := func() []byte {
			res, err := Run(context.Background(), kind, fastCampaignParams())
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			b, err := report.CanonicalJSON(res)
			if err != nil {
				t.Fatalf("%s: encode: %v", kind, err)
			}
			return b
		}
		a, b := enc(), enc()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two runs produced different canonical JSON", kind)
		}
		if len(a) == 0 || a[0] != '{' {
			t.Errorf("%s: implausible result encoding %q", kind, a[:min(len(a), 40)])
		}
	}
}

// TestCampaignRunCancelled checks a cancelled context aborts a campaign
// with the context's error rather than running it to completion.
func TestCampaignRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"characterize", "table1", "compare", "future", "futuresim", "relatedwork"} {
		if _, err := Run(ctx, kind, fastCampaignParams()); err == nil {
			t.Errorf("%s: cancelled run returned no error", kind)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestWithBaseline checks the future kind's comparison list gains the
// Equipartition baseline exactly once, whether or not the request already
// names it — a duplicate would simulate the most expensive cells twice.
func TestWithBaseline(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		{[]string{"Dynamic", "Dyn-Aff"}, []string{"Equipartition", "Dynamic", "Dyn-Aff"}},
		{[]string{"Equipartition", "Dynamic"}, []string{"Equipartition", "Dynamic"}},
		{[]string{"Dynamic", "Equipartition"}, []string{"Dynamic", "Equipartition"}},
		{nil, []string{"Equipartition"}},
	}
	for _, tc := range cases {
		got := withBaseline(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("withBaseline(%v) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("withBaseline(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
