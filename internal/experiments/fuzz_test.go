package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// FuzzCampaignParams normalizes random params as every kind and checks
// the contract the service's cache identity rests on:
//
//   - Normalize never panics;
//   - an accepted result normalizes to itself again, with the same
//     campaign cache key (derived as the service derives it);
//   - every field the kind's schema lists lies within its min, max and
//     allowed values, and every field it does not list is zero;
//   - every rejection is a *ParamError naming a schema parameter
//     (indexed for a list element). A shared parameter outside its wire
//     range, and an engine tier the kind cannot run, are refused on
//     every kind, listed or not.
//
// It only normalizes and derives keys: it never plans or runs a
// campaign. Policies and products arrive comma-separated.
func FuzzCampaignParams(f *testing.F) {
	type seed struct {
		fast                  bool
		procs, reps, appScale int
		budget                float64
		mix                   int
		policies              string
		maxProduct            float64
		products              string
		seed                  uint64
		engine                string
		workers               int
	}
	for _, s := range []seed{
		{},
		{fast: true},
		// Policy aliases once forked the cache identity (kept verbatim).
		{fast: true, mix: 5, policies: "equi,dynamic"},
		{procs: maxProcs, reps: maxReps, budget: maxBudgetSec, appScale: 4, mix: 6, maxProduct: 64, products: "1,4,16", seed: 7, engine: EngineAuto, workers: 3},
		{procs: maxProcs + 1, reps: maxReps + 1, budget: maxBudgetSec + 0.5, appScale: -1, mix: 7, workers: -1},
		{procs: 1<<20 - 1, engine: EngineAnalytic, policies: "Dynamic,NoSuch", products: "0.5"},
		{budget: 0.3, maxProduct: 0.5, products: "NaN,+Inf"},
		{budget: 0.4, mix: -1, maxProduct: math.Inf(1), engine: "bogus"},
		{budget: 2.0018027, fast: true, policies: "TimeShare-Aff,Equipartition"},
		// Truncated to whole nanoseconds, this budget once lost one more
		// nanosecond at each normalization.
		{budget: 16.001802699},
		{budget: 1e-12, seed: math.MaxUint64},
		{budget: math.NaN(), maxProduct: math.NaN()},
	} {
		f.Add(s.fast, s.procs, s.reps, s.budget, s.appScale, s.mix, s.policies, s.maxProduct, s.products, s.seed, s.engine, s.workers)
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	// Shared parameters, and the engine tier, are checked on every kind.
	everyKind := map[string]bool{engineParam.Name: true}
	for _, k := range kinds {
		for _, p := range k.params {
			everyKind[p.Name] = everyKind[p.Name] || p.shared
		}
	}
	f.Fuzz(func(t *testing.T, fast bool, procs, reps int, budget float64, appScale, mix int,
		policies string, maxProduct float64, products string, seed uint64, engine string, workers int) {
		p := CampaignParams{Fast: fast, Procs: procs, Replications: reps, BudgetSec: budget, AppScale: appScale,
			Mix: mix, Policies: split(policies), MaxProduct: maxProduct, Seed: seed, Engine: engine, Workers: workers}
		for _, s := range split(products) {
			if x, err := strconv.ParseFloat(s, 64); err == nil {
				p.Products = append(p.Products, x)
			}
		}
		for _, c := range Campaigns() {
			schema := make(map[string]ParamSpec)
			for _, spec := range c.ParamSchema() {
				schema[spec.Name] = spec
			}
			n, err := c.Normalize(p)
			if err != nil {
				var pe *ParamError
				if !errors.As(err, &pe) {
					t.Fatalf("%s %+v: rejection %v is no ParamError", c.Kind, p, err)
				}
				name, _, _ := strings.Cut(strings.TrimPrefix(pe.Field, "params."), "[")
				if _, ok := schema[name]; !ok && !everyKind[name] {
					t.Fatalf("%s %+v: rejection names %s, not a parameter of the kind", c.Kind, p, pe.Field)
				}
				continue
			}
			key := campaignKey(t, c.Kind, n)
			again, err := c.Normalize(n)
			if err != nil {
				t.Fatalf("%s: normalized params %+v refused: %v", c.Kind, n, err)
			}
			if !reflect.DeepEqual(again, n) || campaignKey(t, c.Kind, again) != key {
				t.Fatalf("%s: normalization not idempotent:\n%+v\n%+v", c.Kind, n, again)
			}
			checkWithinSchema(t, c.Kind, n, schema)
		}
	})
}

// campaignKey derives the campaign cache key of normalized params as the
// service does: workers zeroed, canonical JSON, engine version.
func campaignKey(t *testing.T, kind string, n CampaignParams) string {
	t.Helper()
	n.Workers = 0
	canon, err := report.CanonicalJSON(n)
	if err != nil {
		t.Fatalf("%s: normalized params %+v have no cache key: %v", kind, n, err)
	}
	return resultcache.Key(kind, canon, version.Engine)
}

// checkWithinSchema requires every field of normalized params n to be
// zero unless the schema lists it, and every listed one (or each of its
// elements) to lie within the spec's min, max and allowed values.
func checkWithinSchema(t *testing.T, kind string, n CampaignParams, schema map[string]ParamSpec) {
	t.Helper()
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var fields map[string]any
	if err := dec.Decode(&fields); err != nil {
		t.Fatal(err)
	}
	for name, spec := range schema {
		if _, set := fields[name]; !set && (spec.Type == "int" || spec.Type == "uint" || spec.Type == "float") {
			fields[name] = json.Number("0") // omitted as zero
		}
	}
	for name, v := range fields {
		spec, ok := schema[name]
		if !ok {
			t.Fatalf("%s: normalized params keep %s = %v, which the kind does not list", kind, name, v)
		}
		elems, isList := v.([]any)
		if !isList {
			elems = []any{v}
		}
		for _, e := range elems {
			switch e := e.(type) {
			case string:
				if spec.Allowed != nil && !slices.Contains(spec.Allowed, e) {
					t.Fatalf("%s: %s = %q outside %v", kind, name, e, spec.Allowed)
				}
			case json.Number:
				x, err := e.Float64()
				if err != nil || (spec.Min != nil && x < *spec.Min) || (spec.Max != nil && x > *spec.Max) {
					t.Fatalf("%s: %s = %v outside [%v, %v]", kind, name, e, spec.Min, spec.Max)
				}
			default:
				t.Fatalf("%s: %s = %v (%T) unexpected", kind, name, e, e)
			}
		}
	}
}
