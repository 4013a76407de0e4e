package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
)

// cellWireTypes are every cell-key and cell-partial type. cellKey and
// Cell.RunBody encode them with plain json.Marshal, which is canonical
// only because each declares its fields in bytewise JSON-name order.
var cellWireTypes = []any{
	characterizeCellKey{}, AppCharacter{},
	table1CellKey{}, table1CellPartial{},
	compareCellKey{}, compareCellPartial{},
	futureSimCellKey{}, futureSimCellPartial{},
	relatedWorkCellKey{}, relatedWorkCellPartial{},
}

// checkCanonicalLayout fails unless t, and every struct reachable from it,
// encodes with object keys in bytewise order: struct fields declared in
// JSON-name order, maps keyed by strings (encoding/json sorts those), and
// no embedded or interface-typed fields whose keys it could not see.
func checkCanonicalLayout(t *testing.T, typ reflect.Type, path string) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		checkCanonicalLayout(t, typ.Elem(), path+"[]")
	case reflect.Map:
		if typ.Key().Kind() != reflect.String {
			t.Errorf("%s: map key %v is not a string", path, typ.Key())
		}
		checkCanonicalLayout(t, typ.Elem(), path+"{}")
	case reflect.Interface:
		t.Errorf("%s: interface-typed value has no declared key order", path)
	case reflect.Struct:
		prev := ""
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			if f.Anonymous {
				t.Errorf("%s.%s: embedded field", path, f.Name)
			}
			if name == "" {
				name = f.Name
			}
			if prev != "" && name <= prev {
				t.Errorf("%s: field %q declared after %q; declare fields in bytewise JSON-name order", path, name, prev)
			}
			prev = name
			checkCanonicalLayout(t, f.Type, path+"."+f.Name)
		}
	}
}

func TestCellTypesDeclareFieldsInKeyOrder(t *testing.T) {
	for _, v := range cellWireTypes {
		typ := reflect.TypeOf(v)
		checkCanonicalLayout(t, typ, typ.Name())
	}
}

// requireCanonical fails unless b is already report.CanonicalJSON's
// encoding of itself.
func requireCanonical(t *testing.T, what string, b []byte) {
	t.Helper()
	canon, err := report.CanonicalJSON(json.RawMessage(b))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(b, canon) {
		t.Errorf("%s is not canonical:\n got %s\nwant %s", what, b, canon)
	}
}

// TestCellBytesCanonicalByConstruction plans every registered kind at fast
// scale, on the sim engine and also on the analytic one where the kind
// takes an engine, and requires every cell key (of the kind's default grid
// and of a small one) and every executed cell partial (of the small grid)
// to be byte-equal to its own canonical encoding.
func TestCellBytesCanonicalByConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	small := make(map[string]CampaignParams)
	for _, tc := range goldenCampaigns {
		small[tc.kind] = tc.p
	}
	for _, c := range Campaigns() {
		for _, engine := range []string{EngineSim, EngineAnalytic} {
			if ValidateEngine(c.Kind, engine) != nil {
				continue
			}
			c, engine := c, engine
			t.Run(c.Kind+"/"+engine, func(t *testing.T) {
				t.Parallel()
				full, err := Cells(c.Kind, CampaignParams{Fast: true, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				for _, cell := range full.Cells {
					requireCanonical(t, "key of "+cell.ID, cell.KeyParams)
				}
				p, ok := small[c.Kind]
				if !ok {
					t.Fatalf("no small params for kind %q", c.Kind)
				}
				p.Engine, p.Workers = engine, 1
				plan, err := Cells(c.Kind, p)
				if err != nil {
					t.Fatal(err)
				}
				for i, cell := range plan.Cells {
					requireCanonical(t, "key of "+cell.ID, cell.KeyParams)
					body, err := plan.Cells[i].RunBody(context.Background())
					if err != nil {
						t.Fatalf("cell %s: %v", cell.ID, err)
					}
					requireCanonical(t, "partial of "+cell.ID, body)
				}
			})
		}
	}
}
