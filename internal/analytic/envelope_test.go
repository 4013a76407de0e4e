package analytic

import "testing"

func TestParsePromotionTableRejectsBadTolerances(t *testing.T) {
	cases := []string{
		`{"promote_rel_err":0,"tolerance_rel_err":0.1,"cells":[]}`,
		`{"promote_rel_err":0.08,"tolerance_rel_err":0,"cells":[]}`,
		`{"promote_rel_err":0.2,"tolerance_rel_err":0.1,"cells":[]}`, // promote looser than check
		`not json`,
	}
	for _, c := range cases {
		if _, err := ParsePromotionTable([]byte(c)); err == nil {
			t.Errorf("bad table accepted: %s", c)
		}
	}
}

func TestDefaultEnvelopeLoads(t *testing.T) {
	table := DefaultTable()
	if table.PromoteRelErr != DefaultPromoteRelErr || table.TolRelErr != DefaultTolRelErr {
		t.Errorf("golden thresholds %v/%v, want %v/%v",
			table.PromoteRelErr, table.TolRelErr, DefaultPromoteRelErr, DefaultTolRelErr)
	}
	env := DefaultEnvelope()
	if len(env.promoted) == 0 {
		t.Fatal("checked-in golden promotes no cells")
	}
	promoted := 0
	for _, c := range table.Cells {
		if c.Promoted != env.Promoted(c.Coord) {
			t.Errorf("%s: table says promoted=%v, envelope says %v",
				c.Coord, c.Promoted, env.Promoted(c.Coord))
		}
		if c.Promoted {
			promoted++
			// Promotion is decided on the strict threshold when recorded.
			if re := c.Metrics[PromotionMetric].RelErr; re > table.PromoteRelErr {
				t.Errorf("%s promoted at %.1f%% rel err, above the %.0f%% promote bound",
					c.Coord, 100*re, 100*table.PromoteRelErr)
			}
		}
	}
	if promoted != len(env.promoted) {
		t.Errorf("envelope size %d, table promotes %d", len(env.promoted), promoted)
	}
	if env.Promoted("no-such-coordinate") {
		t.Error("unknown coordinate inside the envelope")
	}
}
