package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/simtime"
	"repro/internal/workload"
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
// fast, then the kind's parameters as its registry entry lists them. They
// are the specs Normalize applies, so a request of {} normalizes to
// exactly these defaults.
func (c Campaign) ParamSchema() []ParamSpec {
	k := kindByName(c.Kind)
	if k == nil {
		return nil
	}
	specs := []ParamSpec{{Name: "fast", Type: "bool", Default: false,
		Description: "select the scaled-down fast preset (reps=2, budget_sec=4, app_scale=4); folded into the other fields by normalization"}}
	for _, f := range k.params {
		specs = append(specs, f.ParamSpec)
	}
	return specs
}

// param is one wire parameter of the campaign kinds: its schema entry,
// its default under the fast preset (0 = the schema's), whether every
// kind checks its wire range, and canon, which returns the canonical form
// of an explicit value within the bounds (nil = as is).
type param struct {
	ParamSpec
	fast   float64
	shared bool
	canon  func(float64) float64
}

// errorf is a ParamError naming f, or its element i when i >= 0.
func (f *param) errorf(i int, format string, args ...any) error {
	field := "params." + f.Name
	if i >= 0 {
		field = fmt.Sprintf("%s[%d]", field, i)
	}
	return &ParamError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// check reports v outside f's bounds as a ParamError on element i (-1
// for the field itself).
func (f *param) check(i int, v float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return f.errorf(i, "must be finite")
	case f.Min != nil && v < *f.Min:
		return f.errorf(i, "must be >= %g", *f.Min)
	case f.Max != nil && v > *f.Max:
		return f.errorf(i, "must be <= %g", *f.Max)
	}
	return nil
}

// number normalizes the numeric parameter g of kind k, v on the wire,
// into *out: zero selects the kind's default (the fast preset's, under
// fast), any other value must lie within its bounds. An unlisted
// parameter stays zero; a shared one must still lie in [0, Max]. g names
// the parameter; a kind may list its own variant of it (mix).
func number[T int | uint64 | float64](k *kindSpec, g *param, v T, out *T, fast bool) error {
	f, listed := k.param(g.Name), true
	if f == nil {
		if f, listed = g, false; !g.shared {
			return nil
		}
	}
	switch x := float64(v); {
	case x < 0:
		return f.errorf(-1, "must be >= 0")
	case f.Max != nil && x > *f.Max:
		return f.errorf(-1, "must be <= %g", *f.Max)
	case !listed:
	case v == 0 && fast && f.fast != 0:
		*out = T(f.fast)
	case v == 0:
		*out = f.Default.(T)
	default:
		if err := f.check(-1, x); err != nil {
			return err
		}
		*out = v
		if f.canon != nil {
			*out = T(f.canon(x))
		}
	}
	return nil
}

// list normalizes the list parameter g of kind k, v on the wire, into
// *out: an empty list selects a copy of the default, and every element
// must be allowed or within the bounds. An unlisted parameter stays nil.
// g names the parameter; a kind may list its own variant of it (policies).
func list[T string | float64](k *kindSpec, g *param, v []T, out *[]T) error {
	f := k.param(g.Name)
	if f == nil {
		return nil
	}
	if len(v) == 0 {
		v = slices.Clone(f.Default.([]T))
	}
	for i, e := range v {
		switch e := any(e).(type) {
		case string:
			if slices.Index(f.Allowed, e) < 0 {
				return f.errorf(i, "unknown %q (allowed: %s)", e, strings.Join(f.Allowed, ", "))
			}
		case float64:
			if err := f.check(i, e); err != nil {
				return err
			}
		}
	}
	*out = v
	return nil
}

// The parameters of the campaign kinds. The paper's campaign is 16
// processors, 5 replications, a 20 s Table-1 budget and full-size
// applications; the fast preset shrinks the applications and cuts the
// replications and the budget.
var (
	procsParam = &param{ParamSpec: ParamSpec{Name: "procs", Type: "int", Default: 16, Min: limit(1), Max: limit(maxProcs),
		Description: "simulated machine processor count"}, shared: true}
	seedParam = &param{ParamSpec: ParamSpec{Name: "seed", Type: "uint", Default: uint64(1), Min: limit(1),
		Description: "campaign root seed (0 selects the default)"}}
	workersParam = &param{ParamSpec: ParamSpec{Name: "workers", Type: "int", Default: 0, Min: limit(0),
		Description: "concurrent simulation cells (0 = all CPUs); results are bitwise identical at every worker count, so workers is never part of the cache identity"}}
	repsParam = &param{ParamSpec: ParamSpec{Name: "reps", Type: "int", Default: 5, Min: limit(1), Max: limit(maxReps),
		Description: "replications per simulation cell (at most 100)"}, fast: 2, shared: true}
	appScaleParam = &param{ParamSpec: ParamSpec{Name: "app_scale", Type: "int", Default: 1, Min: limit(1),
		Description: "application shrink factor for quick runs"}, fast: 4, shared: true}
	budgetParam = &param{ParamSpec: ParamSpec{Name: "budget_sec", Type: "float", Default: 20.0,
		// Every Table-1 run lasts at least the paper's largest Q, 0.4 s.
		Min: limit(slices.Max(measure.DefaultQs()).SecondsF()), Max: limit(maxBudgetSec),
		Description: "Table-1 per-run compute budget in simulated seconds (must cover at least one 400 ms quantum; at most 100, five times the paper's 20)"}, fast: 4, shared: true,
		canon: wholeNanos}
	compareMixParam      = mixParam(0, 0, "restrict to one workload mix (1-6); 0 runs all six")
	futureSimMixParam    = mixParam(5, 1, "the workload mix simulated on the scaled machines")
	comparePoliciesParam = policiesParam("Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri")
	dynamicPoliciesParam = policiesParam("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay")
	maxProductParam      = &param{ParamSpec: ParamSpec{Name: "max_product", Type: "float", Default: 4096.0, Min: limit(1),
		Description: "upper bound of the speed*cache product axis"}}
	productsParam = &param{ParamSpec: ParamSpec{Name: "products", Type: "[]float", Default: []float64{1, 16, 64, 256, 1024}, Min: limit(1),
		Description: "speed*cache products to simulate (each >= 1)"}}
	engineParam = &param{ParamSpec: ParamSpec{Name: "engine", Type: "string", Default: EngineSim,
		Allowed: []string{EngineSim, EngineAnalytic, EngineAuto},
		Description: "per-cell execution tier: sim runs the discrete-event simulator everywhere, " +
			"analytic the fast fluid estimator everywhere, auto promotes to analytic only inside " +
			"the differentially validated envelope; part of the cache identity"}}
)

// wholeNanos truncates s to the whole nanoseconds the cells run and
// returns the least float that truncates back to them: the float nearest
// d/1e9 s can fall below d ns, and would lose one more each time.
func wholeNanos(s float64) float64 {
	d := simtime.Seconds(s)
	r := d.SecondsF()
	for simtime.Seconds(r) < d {
		r = math.Nextafter(r, math.Inf(1))
	}
	return r
}

// mixParam declares a kind's workload-mix parameter with its default and
// least value; the paper's mixes are numbered from 1.
func mixParam(def int, lo float64, desc string) *param {
	return &param{ParamSpec: ParamSpec{Name: "mix", Type: "int", Default: def, Min: limit(lo),
		Max: limit(float64(len(workload.Mixes()))), Description: desc}}
}

// policiesParam declares a kind's policy-list parameter with its default
// list.
func policiesParam(def ...string) *param {
	return &param{ParamSpec: ParamSpec{Name: "policies", Type: "[]string", Default: def, Allowed: core.PolicyNames(),
		Description: "policy list, in result order"}}
}
