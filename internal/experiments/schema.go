package experiments

import (
	"fmt"

	"repro/internal/core"
)

// ParamError reports one invalid campaign parameter by its wire-level
// field path ("params.mix", "params.policies[1]", ...), so API clients
// can point at the offending field instead of parsing prose.
type ParamError struct {
	Field string
	Msg   string
}

// Error renders the path and the reason.
func (e *ParamError) Error() string {
	return fmt.Sprintf("experiments: invalid %s: %s", e.Field, e.Msg)
}

// ParamSpec describes one wire parameter of a campaign kind: its JSON
// name, type, default after normalization, and the allowed range or value
// set where one exists. The service's GET /v1/campaigns listing exposes
// these so clients can build requests without reading the Go source.
type ParamSpec struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Default any      `json:"default"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	// Allowed enumerates the legal values of a string-valued parameter
	// (or of each element, for a list parameter).
	Allowed     []string `json:"allowed,omitempty"`
	Description string   `json:"description"`
}

func limit(v float64) *float64 { return &v }

// ParamSchema returns the parameters the kind consumes, in a fixed order:
// the shared knobs first, then the kind's own. Defaults mirror what
// Normalize makes explicit, so a request of {} normalizes to exactly
// these values.
func (c Campaign) ParamSchema() []ParamSpec {
	specs := []ParamSpec{
		{Name: "fast", Type: "bool", Default: false,
			Description: "select the scaled-down fast preset (reps=2, budget_sec=4, app_scale=4); folded into the other fields by normalization"},
	}
	if c.Kind != "table1" { // table1 measures on one processor
		specs = append(specs, ParamSpec{Name: "procs", Type: "int", Default: 16, Min: limit(1),
			Description: "simulated machine processor count"})
	}
	specs = append(specs, []ParamSpec{
		{Name: "seed", Type: "uint", Default: 1, Min: limit(1),
			Description: "campaign root seed (0 selects the default)"},
		{Name: "workers", Type: "int", Default: 0, Min: limit(0),
			Description: "concurrent simulation cells (0 = all CPUs); results are bitwise identical at every worker count, so workers is never part of the cache identity"},
	}...)
	reps := ParamSpec{Name: "reps", Type: "int", Default: 5, Min: limit(1),
		Description: "replications per simulation cell"}
	appScale := ParamSpec{Name: "app_scale", Type: "int", Default: 1, Min: limit(1),
		Description: "application shrink factor for quick runs"}
	budget := ParamSpec{Name: "budget_sec", Type: "float", Default: 20.0, Min: limit(0.4), Max: limit(maxBudgetSec),
		Description: "Table-1 per-run compute budget in simulated seconds (must cover at least one 400 ms quantum; at most 100, five times the paper's 20)"}
	policies := func(def []string) ParamSpec {
		return ParamSpec{Name: "policies", Type: "[]string", Default: def, Allowed: core.PolicyNames(),
			Description: "policy list, in result order"}
	}
	engine := ParamSpec{Name: "engine", Type: "string", Default: EngineSim,
		Allowed: []string{EngineSim, EngineAnalytic, EngineAuto},
		Description: "per-cell execution tier: sim runs the discrete-event simulator everywhere, " +
			"analytic the fast fluid estimator everywhere, auto promotes to analytic only inside " +
			"the differentially validated envelope; part of the cache identity"}
	switch c.Kind {
	case "characterize":
		specs = append(specs, appScale)
	case "relatedwork":
		specs = append(specs, reps, appScale)
	case "table1":
		specs = append(specs, budget)
	case "compare":
		specs = append(specs, reps, appScale,
			ParamSpec{Name: "mix", Type: "int", Default: 0, Min: limit(0), Max: limit(6),
				Description: "restrict to one workload mix (1-6); 0 runs all six"},
			policies(defaultComparePolicies()), engine)
	case "future":
		specs = append(specs, reps, appScale, budget, policies(defaultDynamicPolicies()),
			ParamSpec{Name: "max_product", Type: "float", Default: 4096.0, Min: limit(1),
				Description: "upper bound of the speed*cache product axis"},
			engine)
	case "futuresim":
		specs = append(specs, reps, appScale,
			ParamSpec{Name: "mix", Type: "int", Default: 5, Min: limit(1), Max: limit(6),
				Description: "the workload mix simulated on the scaled machines"},
			policies(defaultDynamicPolicies()),
			ParamSpec{Name: "products", Type: "[]float", Default: []float64{1, 16, 64, 256, 1024}, Min: limit(1),
				Description: "speed*cache products to simulate (each >= 1)"},
			engine)
	}
	return specs
}
