package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestCellAtMatchesCells requires CellAt's cell i to be Cells' cell i for
// every kind, engine tier and index of the default fast grid and the
// golden small grid, down to the executed partial on the small grid, and
// indices outside the plan to fail.
func TestCellAtMatchesCells(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	small := make(map[string]CampaignParams)
	for _, tc := range goldenCampaigns {
		small[tc.kind] = tc.p
	}
	for _, c := range Campaigns() {
		for _, engine := range []string{EngineSim, EngineAnalytic, EngineAuto} {
			if ValidateEngine(c.Kind, engine) != nil {
				continue
			}
			c, engine := c, engine
			t.Run(c.Kind+"/"+engine, func(t *testing.T) {
				t.Parallel()
				p := small[c.Kind]
				p.Engine, p.Workers = engine, 1
				for _, g := range []struct {
					name string
					p    CampaignParams
					run  bool
				}{
					{"fast", CampaignParams{Fast: true, Engine: engine}, false},
					{"small", p, true},
				} {
					plan, err := Cells(c.Kind, g.p)
					if err != nil {
						t.Fatal(err)
					}
					n := len(plan.Cells)
					for _, i := range []int{-1, n} {
						if cell, got, err := CellAt(c.Kind, g.p, i); err == nil || cell != nil || got != n {
							t.Errorf("%s grid: CellAt(%d) = %v, %d, %v; want an error and count %d", g.name, i, cell, got, err, n)
						}
					}
					for i := range plan.Cells {
						want := &plan.Cells[i]
						cell, got, err := CellAt(c.Kind, g.p, i)
						if err != nil {
							t.Fatalf("%s grid: CellAt(%d): %v", g.name, i, err)
						}
						if got != n || cell.ID != want.ID || cell.KeyKind != want.KeyKind ||
							!bytes.Equal(cell.KeyParams, want.KeyParams) || cell.Engine != want.Engine {
							t.Fatalf("%s grid cell %d: CellAt gives %q %s %s %q of %d, Cells gives %q %s %s %q of %d", g.name, i,
								cell.ID, cell.KeyKind, cell.KeyParams, cell.Engine, got,
								want.ID, want.KeyKind, want.KeyParams, want.Engine, n)
						}
						if !g.run {
							continue
						}
						gotBody, err := cell.RunBody(context.Background())
						if err != nil {
							t.Fatalf("CellAt cell %s: %v", cell.ID, err)
						}
						wantBody, err := want.RunBody(context.Background())
						if err != nil {
							t.Fatalf("plan cell %s: %v", want.ID, err)
						}
						if !bytes.Equal(gotBody, wantBody) {
							t.Fatalf("cell %s: CellAt partial\n%s\nplan partial\n%s", cell.ID, gotBody, wantBody)
						}
					}
				}
			})
		}
	}
}

// TestCellAtCostIndependentOfGrid pins that CellAt builds one cell, not
// the plan: on the 24-cell all-mix compare grid it allocates no more than
// on a one-cell grid, plus what normalizing the longer policy list costs
// (it reads 15 against 13; building all 24 cells would cost hundreds).
func TestCellAtCostIndependentOfGrid(t *testing.T) {
	allocs := func(p CampaignParams, i int) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, _, err := CellAt("compare", p, i); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(CampaignParams{Fast: true, Mix: 5, Policies: []string{"Dyn-Aff"}}, 0)
	full := allocs(CampaignParams{Fast: true, Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}}, 23)
	if full > one+4 {
		t.Errorf("CellAt allocates %v on the 24-cell grid, %v on a one-cell grid; want at most 4 more", full, one)
	}
}
