package experiments

import (
	"strings"
	"testing"

	"repro/internal/analytic"
)

// calCell is a calibration cell at coord whose promotion metric has
// relative error relErr.
func calCell(coord string, relErr float64, promoted bool) analytic.CalCell {
	return analytic.CalCell{
		Coord:    coord,
		Metrics:  map[string]analytic.MetricPair{analytic.PromotionMetric: {RelErr: relErr}},
		Promoted: promoted,
	}
}

// TestCalibrationCheck drives Calibration.Check with hand-built passes
// against a hand-built golden; nothing is simulated.
func TestCalibrationCheck(t *testing.T) {
	golden := &analytic.PromotionTable{
		PromoteRelErr: analytic.DefaultPromoteRelErr,
		TolRelErr:     analytic.DefaultTolRelErr,
		Cells: []analytic.CalCell{
			calCell("cell-a", 0.01, true),
			calCell("cell-b", 0.07, true),
			calCell("cell-c", 0.30, false),
		},
	}
	pass := func(cells ...analytic.CalCell) *Calibration {
		return &Calibration{Table: analytic.PromotionTable{Cells: cells}}
	}
	cases := []struct {
		name   string
		cal    *Calibration
		golden *analytic.PromotionTable
		want   string // substring of the error; "" = no error
	}{
		{
			// A cell the golden does not promote may drift freely.
			name:   "within tolerance",
			cal:    pass(calCell("cell-a", 0.02, true), calCell("cell-b", 0.10, false), calCell("cell-c", 0.90, false)),
			golden: golden,
		},
		{
			name:   "promoted cell over tolerance",
			cal:    pass(calCell("cell-a", 0.02, true), calCell("cell-b", 0.11, false), calCell("cell-c", 0.30, false)),
			golden: golden,
			want:   "cell-b: mean_rt_sec rel err 11.0% exceeds tolerance 10%",
		},
		{
			name:   "promoted cell missing",
			cal:    pass(calCell("cell-a", 0.02, true), calCell("cell-c", 0.30, false)),
			golden: golden,
			want:   "cell-b: golden-promoted cell absent from the calibration grid",
		},
		{
			name: "golden promotes nothing",
			cal:  pass(calCell("cell-a", 0.02, true)),
			golden: &analytic.PromotionTable{TolRelErr: analytic.DefaultTolRelErr,
				Cells: []analytic.CalCell{calCell("cell-a", 0.01, false)}},
			want: "golden promotes no cells",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			promoted, err := c.cal.Check(c.golden)
			if c.want == "" {
				if err != nil || promoted != 2 {
					t.Fatalf("Check = %d, %v; want 2, nil", promoted, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Check error = %v; want it to contain %q", err, c.want)
			}
			if strings.Contains(err.Error(), "cell-a") || strings.Contains(err.Error(), "cell-c") {
				t.Errorf("Check error names a cell within tolerance or unpromoted: %v", err)
			}
		})
	}
}
