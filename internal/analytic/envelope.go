package analytic

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"
)

// promotionJSON is the checked-in calibration golden recorded by `make
// regen`: per-coordinate analytic-vs-sim errors and the promotion verdicts
// defining the envelope the `auto` engine trusts.
//
//go:embed promotion.json
var promotionJSON []byte

// MetricPair records one metric's exact-sim and analytic values with their
// relative error |analytic−sim| / max(|sim|, ε).
type MetricPair struct {
	Sim      float64 `json:"sim"`
	Analytic float64 `json:"analytic"`
	RelErr   float64 `json:"rel_err"`
}

// CalCell is one calibrated grid coordinate. The structured fields
// reconstruct the cell's configuration exactly; Coord is the derived
// canonical coordinate string used as the envelope lookup key (it must
// match the coordinate the experiment layer computes for the same cell).
type CalCell struct {
	Coord    string                `json:"coord"`
	Kind     string                `json:"kind"` // "compare" or "futuresim"
	Procs    int                   `json:"procs"`
	Reps     int                   `json:"reps"`
	AppScale int                   `json:"app_scale"`
	Seed     uint64                `json:"seed"`
	Mix      int                   `json:"mix"`
	Product  float64               `json:"product,omitempty"` // futuresim only
	Policy   string                `json:"policy"`
	Metrics  map[string]MetricPair `json:"metrics"`
	Promoted bool                  `json:"promoted"`
}

// PromotionTable is the calibration golden: the error tolerance pair and
// the calibrated cells. PromoteRelErr is the stricter bound a cell's mean
// response-time error must meet when the golden is recorded; TolRelErr is
// the looser bound the check (and the golden-based tests) re-enforce, leaving
// hysteresis so cross-platform float drift cannot flip a borderline cell.
type PromotionTable struct {
	PromoteRelErr float64   `json:"promote_rel_err"`
	TolRelErr     float64   `json:"tolerance_rel_err"`
	Cells         []CalCell `json:"cells"`
}

// PromotionMetric is the metric promotion is decided on.
const PromotionMetric = "mean_rt_sec"

// Default promotion thresholds (see PromotionTable).
const (
	DefaultPromoteRelErr = 0.08
	DefaultTolRelErr     = 0.10
)

// ParsePromotionTable decodes a promotion golden.
func ParsePromotionTable(data []byte) (*PromotionTable, error) {
	var t PromotionTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("analytic: bad promotion table: %w", err)
	}
	if t.PromoteRelErr <= 0 || t.TolRelErr <= 0 || t.PromoteRelErr > t.TolRelErr {
		return nil, fmt.Errorf("analytic: promotion table tolerances %v/%v invalid",
			t.PromoteRelErr, t.TolRelErr)
	}
	return &t, nil
}

// Envelope answers whether a cell coordinate is inside the differentially
// validated region the `auto` engine may serve analytically.
type Envelope struct {
	promoted map[string]bool
}

// Envelope builds the lookup set of promoted coordinates.
func (t *PromotionTable) Envelope() *Envelope {
	e := &Envelope{promoted: make(map[string]bool, len(t.Cells))}
	for _, c := range t.Cells {
		if c.Promoted {
			e.promoted[c.Coord] = true
		}
	}
	return e
}

// Promoted reports whether the coordinate is inside the envelope. Unknown
// coordinates — anything the calibration grid never measured — are outside.
func (e *Envelope) Promoted(coord string) bool { return e.promoted[coord] }

var (
	defaultOnce  sync.Once
	defaultTable *PromotionTable
	defaultEnv   *Envelope
)

func loadDefault() {
	t, err := ParsePromotionTable(promotionJSON)
	if err != nil {
		// The golden is checked in and covered by tests; a parse failure is
		// a build corruption, not a runtime condition.
		panic(err)
	}
	defaultTable = t
	defaultEnv = t.Envelope()
}

// DefaultTable returns the checked-in calibration golden.
func DefaultTable() *PromotionTable {
	defaultOnce.Do(loadDefault)
	return defaultTable
}

// DefaultEnvelope returns the envelope of the checked-in golden.
func DefaultEnvelope() *Envelope {
	defaultOnce.Do(loadDefault)
	return defaultEnv
}
