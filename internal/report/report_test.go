package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableWrite(t *testing.T) {
	tbl := Table{
		Title:   "Test Table",
		Headers: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b") // short row padded
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Test Table", "name", "value", "alpha", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: the header's second column starts at the same
	// offset as the first row's second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Index(lines[1], "value") != strings.Index(lines[3], "1") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x,y", `say "hi"`)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header wrong: %s", out)
	}
}

func TestChartBasics(t *testing.T) {
	c := Chart{
		Title:  "fig",
		Xs:     []float64{1, 2, 4, 8},
		Series: []Series{{Name: "dyn", Ys: []float64{0.5, 0.6, 0.8, 1.2}}},
		LogX:   true,
		RefY:   1.0,
		RefYOn: true,
	}
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fig") || !strings.Contains(out, "dyn") {
		t.Errorf("chart missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("chart has no data markers")
	}
	if !strings.Contains(out, "....") {
		t.Error("reference line missing")
	}
}

func TestChartEmptyAndMismatch(t *testing.T) {
	var b strings.Builder
	c := Chart{Title: "empty"}
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Error("empty chart not flagged")
	}
	c = Chart{Xs: []float64{1, 2}, Series: []Series{{Name: "bad", Ys: []float64{1}}}}
	if err := c.Write(&b); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestChartHandlesNaNAndFlatSeries(t *testing.T) {
	c := Chart{
		Xs: []float64{1, 2, 3},
		Series: []Series{
			{Name: "flat", Ys: []float64{1, 1, 1}},
			{Name: "gap", Ys: []float64{math.NaN(), 2, math.NaN()}},
		},
	}
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
}

func TestChartMultipleSeriesDistinctMarkers(t *testing.T) {
	c := Chart{
		Xs: []float64{1, 2},
		Series: []Series{
			{Name: "a", Ys: []float64{1, 2}},
			{Name: "b", Ys: []float64{2, 1}},
		},
	}
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "* = a") || !strings.Contains(out, "o = b") {
		t.Errorf("legend wrong:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if Pct(0.25) != "25%" {
		t.Errorf("Pct = %q", Pct(0.25))
	}
}
