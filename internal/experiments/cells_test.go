package experiments

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/simtime"
)

// TestCellMergeMatchesMonolithic is the sharding contract: for every
// registered kind, splitting the campaign into cells, executing them in
// reversed order (on 1 and on 8 workers), and merging the canonical-JSON
// partials reproduces the monolithic bytes exactly — the body digests
// recorded from the standalone per-kind drivers before they were folded
// into the cell path.
func TestCellMergeMatchesMonolithic(t *testing.T) {
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
				plan, err := Cells(tc.kind, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Cells) == 0 {
					t.Fatal("empty cell plan")
				}
				for _, cell := range plan.Cells {
					if cell.ID == "" || cell.KeyKind == "" || len(cell.KeyParams) == 0 {
						t.Fatalf("cell missing identity: %+v", cell)
					}
				}
				// Execute the cells back to front, fanned out over the worker
				// pool, to prove the partials carry no positional state.
				n := len(plan.Cells)
				partials := make([][]byte, n)
				err = parallel.ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
					cell := &plan.Cells[n-1-i]
					res, err := cell.Run(ctx)
					if err != nil {
						return err
					}
					b, err := report.CanonicalJSON(res)
					if err != nil {
						return err
					}
					partials[n-1-i] = b
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				merged, err := plan.Merge(context.Background(), partials)
				if err != nil {
					t.Fatal(err)
				}
				if got := bodyDigest(t, merged); got != want[tc.kind] {
					t.Errorf("workers=%d: merged body sha256 %s, monolithic golden %s", workers, got, want[tc.kind])
				}
			}
		})
	}
}

// TestFutureCellKeysSharedWithStandalone checks that the future kind's
// cells carry exactly the cache identities of the equivalent standalone
// compare and table1 campaigns, so prior runs of either kind (or another
// future run with an overlapping policy list) seed its cache entries.
// Plan construction runs no simulations, so this is cheap.
func TestFutureCellKeysSharedWithStandalone(t *testing.T) {
	future, err := Cells("future", CampaignParams{Fast: true, Replications: 1, BudgetSec: 0.5, Policies: []string{"Dynamic"}})
	if err != nil {
		t.Fatal(err)
	}
	compare, err := Cells("compare", CampaignParams{Fast: true, Replications: 1, Policies: []string{"Equipartition", "Dynamic"}})
	if err != nil {
		t.Fatal(err)
	}
	table1, err := Cells("table1", CampaignParams{Fast: true, BudgetSec: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Cell(nil), compare.Cells...), table1.Cells...)
	if len(future.Cells) != len(want) {
		t.Fatalf("future plan has %d cells, want %d (compare %d + table1 %d)",
			len(future.Cells), len(want), len(compare.Cells), len(table1.Cells))
	}
	for i, cell := range future.Cells {
		if cell.KeyKind != want[i].KeyKind || !bytes.Equal(cell.KeyParams, want[i].KeyParams) {
			t.Errorf("cell %d (%s): key %s %s, want %s %s",
				i, cell.ID, cell.KeyKind, cell.KeyParams, want[i].KeyKind, want[i].KeyParams)
		}
	}
}

// TestCellKeysDistinguishParams checks that every parameter that changes
// a cell's bytes forks its cache key, and that Workers does not.
func TestCellKeysDistinguishParams(t *testing.T) {
	base := CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Dynamic"}}
	keyOf := func(p CampaignParams) string {
		plan, err := Cells("compare", p)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Cells[0].KeyKind + "\x00" + string(plan.Cells[0].KeyParams)
	}
	ref := keyOf(base)

	workers := base
	workers.Workers = 8
	if keyOf(workers) != ref {
		t.Error("Workers forked the cell key; results are worker-count invariant")
	}
	for name, mut := range map[string]func(*CampaignParams){
		"seed":  func(p *CampaignParams) { p.Seed = 99 },
		"procs": func(p *CampaignParams) { p.Procs = 8 },
		"reps":  func(p *CampaignParams) { p.Replications = 3 },
	} {
		p := base
		mut(&p)
		if keyOf(p) == ref {
			t.Errorf("%s change did not fork the cell key", name)
		}
	}
}

// TestCellsRejectsBadInput covers the plan-construction error paths.
func TestCellsRejectsBadInput(t *testing.T) {
	if _, err := Cells("nonsense", CampaignParams{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Cells("compare", CampaignParams{Mix: 99}); err == nil {
		t.Error("invalid params accepted")
	}
	plan, err := Cells("relatedwork", CampaignParams{Fast: true, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Merge(context.Background(), make([][]byte, len(plan.Cells)+1)); err == nil {
		t.Error("partial-count mismatch accepted")
	}
	if _, err := plan.Merge(context.Background(), make([][]byte, len(plan.Cells))); err == nil {
		t.Error("empty partial accepted")
	}
}

// TestTable1RunAllocBound bounds the bytes one fast table1 campaign
// allocates, a count that depends on the code and not on the host. The
// campaign's nine cells share one stream set, so its six reference
// streams (a measured and an intervening one per application) are built
// once. A stream holds one 4-byte word per run of identical references,
// and runs are at most 62% of the built-in patterns' references, so the
// streams get 3 bytes a reference. The allowance on top is per
// single-processor run — each of the 45 runs (9 cells × 5 regimes)
// allocates a 64 KB cache: 4,096 32-byte line records, 128 KiB, and no
// undo journal, which the measurement never opens — plus a fixed part for
// the generators, cell partials and the merge. A grid whose cells rebuilt
// their streams, streams of one word a reference, or caches that allocate
// their journal up front would overshoot the bound.
func TestTable1RunAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	const (
		streamBytesPerRef = 3
		perRunAllowance   = 144 << 10
		fixedAllowance    = 1 << 20
	)
	p := CampaignParams{Fast: true, Workers: 1}
	np := mustNormalize(t, "table1", p)
	pats := memtrace.Patterns()
	var refs int64
	for _, pat := range pats {
		refs += 2 * int64(memtrace.NewGenerator(pat, 0, np.Seed).RefsFor(simtime.Seconds(np.BudgetSec)))
	}
	runs := int64(len(measure.DefaultQs()) * len(pats) * (2 + len(pats)))
	bound := uint64(refs*streamBytesPerRef + runs*perRunAllowance + fixedAllowance)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), "table1", p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("one fast table1 run allocated %d B, over the bound of %d B (%d references, %d runs)",
			got, bound, refs, runs)
	}
}
