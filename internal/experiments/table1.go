package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// table1CellStats derives one (Q, measured application) cell's SimStats
// from the Section-4 measurement protocol. The protocol has no event
// queue, so the dispatch counters map onto its regimes instead: every
// migrating-regime switch is a migration charging P^NA (with a cache
// flush, as the paper streams through memory), and every
// multiprogrammed-regime switch charges P^A; the penalty time is the
// regime's whole response-time delta over the stationary baseline. All
// fields are integer, so campaign totals agree regardless of the order
// cells fold in.
func table1CellStats(mc machine.Config, pen measure.Penalties, apps []string, budget simtime.Duration) obs.SimStats {
	var s obs.SimStats
	addRun := func(r measure.RunResult) {
		s.Runs++
		s.WorkNs += int64(budget)
		s.SwitchNs += int64(r.Switches) * int64(mc.SwitchPath)
		s.MissNs += int64(r.Misses) * int64(mc.LineFill)
	}
	delta := func(r, base measure.RunResult) int64 {
		if d := int64(r.ResponseTime - base.ResponseTime); d > 0 {
			return d
		}
		return 0
	}
	addRun(pen.Stationary)
	addRun(pen.Migrating)
	s.Reallocations += uint64(pen.Migrating.Switches)
	s.Migrations += uint64(pen.Migrating.Switches)
	s.PNACharges += uint64(pen.Migrating.Switches)
	s.Flushes += uint64(pen.Migrating.Switches)
	s.PenaltyNs += delta(pen.Migrating, pen.Stationary)
	for _, iv := range apps {
		multi := pen.Multi[iv]
		addRun(multi)
		s.Reallocations += uint64(multi.Switches)
		s.PACharges += uint64(multi.Switches)
		s.PenaltyNs += delta(multi, pen.Stationary)
	}
	return s
}

// Table1Result is the table1 kind's result for a Table 1 measured
// directly with measure.BuildTable1 on the single-processor machine mc
// at budget: its cells go through the table1 cells' partials and merge, so
// the result equals the campaign's for the same budget and seed. If ctx
// carries an obs collector, each cell's counters fold into it in grid
// order, as the cells do. affinitysim measure -detail renders Table 1
// from it, so the protocol behind the per-regime runs it prints runs once.
func Table1Result(ctx context.Context, t1 measure.Table1, mc machine.Config, budget simtime.Duration) Table1CampaignResult {
	stats := obs.CollectorFrom(ctx)
	parts := make([]table1CellPartial, 0, len(t1.Qs)*len(t1.Apps))
	for _, q := range t1.Qs {
		for _, app := range t1.Apps {
			pen := t1.Cells[q][app]
			if stats != nil {
				cell := obs.NewCampaignStats()
				cell.Add("measure", table1CellStats(mc, pen, t1.Apps, budget))
				stats.AddCell(cell)
			}
			parts = append(parts, newTable1Partial(pen))
		}
	}
	return mergeTable1(t1.Qs, t1.Apps, parts)
}

// Table1Report renders a table1 result in the paper's Table-1 layout:
// one block per Q; rows are measured applications; the first column is
// P^NA and the rest are P^A against each intervening application.
func Table1Report(res Table1CampaignResult) []report.Table {
	var out []report.Table
	for _, ms := range res.QsMs {
		q := fromWire(ms, simtime.Millisecond)
		t := report.Table{
			Title:   "Table 1 — P^NA and P^A (µs per switch), Q = " + q.String(),
			Headers: []string{"measured", "P^NA"},
		}
		for _, iv := range res.Apps {
			t.Headers = append(t.Headers, "P^A/"+iv)
		}
		cells := res.Cells[fmt.Sprintf("%g", ms)]
		for _, app := range res.Apps {
			pen := cells[app]
			row := []string{app, report.F(pen.PNAMicros, 0)}
			for _, iv := range res.Apps {
				row = append(row, report.F(pen.PAMicros[iv], 0))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// fromWire converts a wire float count of unit back to the Duration it
// was derived from. Every wire duration began as an integer count of
// nanoseconds divided by the unit, so rounding recovers it exactly.
func fromWire(v float64, unit simtime.Duration) simtime.Duration {
	return simtime.Duration(math.Round(v * float64(unit)))
}

// PenaltyFor returns (P^A, P^NA) in seconds for the given measured
// application, averaged over the given intervening applications, at the
// tabulated Q nearest to interval. It is the parameter-extraction step of
// Section 7.3: the scheduling experiments report each job's observed
// reallocation interval, and the penalties measured at the closest Q apply.
func PenaltyFor(t1 measure.Table1, app string, intervening []string, interval simtime.Duration) (pa, pna float64) {
	if len(t1.Qs) == 0 {
		return 0, 0
	}
	best := t1.Qs[0]
	for _, q := range t1.Qs[1:] {
		if absDur(q-interval) < absDur(best-interval) {
			best = q
		}
	}
	pen, ok := t1.Cells[best][app]
	if !ok {
		return 0, 0
	}
	pna = pen.PNA.SecondsF()
	if len(intervening) == 0 {
		intervening = t1.Apps
	}
	n := 0
	for _, iv := range intervening {
		if v, ok := pen.PA[iv]; ok {
			pa += v.SecondsF()
			n++
		}
	}
	if n > 0 {
		pa /= float64(n)
	}
	return pa, pna
}

func absDur(d simtime.Duration) simtime.Duration {
	if d < 0 {
		return -d
	}
	return d
}
