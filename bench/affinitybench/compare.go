package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json a comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares run records of a parent commit (A, before "--")
// with those of a change (B). Records pair up in order within each
// workload — run them alternately, A first in odd pairs and B first in
// even ones — and a pair whose input fingerprints differ is refused.
func runCompare(args []string, benchFile string, w io.Writer) error {
	split := slices.Index(args, "--")
	if split < 1 || split == len(args)-1 {
		return fmt.Errorf("usage: -compare A.json... -- B.json...")
	}
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	sides := [2]map[string][]record{{}, {}}
	var order []string
	for side, files := range [][]string{args[:split], args[split+1:]} {
		for _, f := range files {
			recs, err := readRecords(f)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if rec.Trace != 0 {
					continue
				}
				if side == 0 && sides[0][rec.Workload] == nil {
					order = append(order, rec.Workload)
				}
				sides[side][rec.Workload] = append(sides[side][rec.Workload], rec)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range order {
		as, bs := sides[0][wl], sides[1][wl]
		if len(as) != len(bs) {
			return fmt.Errorf("%s: %d runs of A but %d of B; runs must pair up", wl, len(as), len(bs))
		}
		for i := range as {
			if as[i].Fingerprint != bs[i].Fingerprint {
				return fmt.Errorf("%s pair %d: input fingerprints differ (seed %d vs %d, or other benchmark code); refusing to compare",
					wl, i+1, as[i].Seed, bs[i].Seed)
			}
		}
		fmt.Fprintf(tw, "%s: %d pairs, A %s, B %s\n", wl, len(as), as[0].GitSHA, bs[0].GitSHA)
		fmt.Fprintln(tw, "  metric\tA median [q1, q3]\tB median [q1, q3]\tB/A-1\tB wins\tverdict (bound)")
		for _, m := range sp.EndToEnd {
			av, bv := make([]float64, len(as)), make([]float64, len(bs))
			for i := range as {
				av[i], bv[i] = as[i].Result.Metrics[m.Name].Value, bs[i].Result.Metrics[m.Name].Value
			}
			wins, verdict := judge(av, bv, m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "  %s (%s)\t%s\t%s\t%+.1f%%\t%d/%d\t%s (%g)\n", m.Name, m.Unit, summary(av), summary(bv),
				100*(ratio(median(bv), median(av))-1), wins, len(av), verdict, m.Bound)
		}
	}
	return tw.Flush()
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q[0], q[2])
}

// judge applies the acceptance rule: B improved when, over at least ten
// pairs, it wins nine in ten (ties count for neither) and the medians
// differ by more than A's interquartile range; a spread of A wider than
// the bound leaves the metric unresolved unless every B run beats every A
// run; B regressed when its median is worse than A's by more than the
// bound.
func judge(a, b []float64, lowerBetter bool, bound float64) (wins int, verdict string) {
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	am, bm := median(a), median(b)
	worse := bm - am
	if !lowerBetter {
		worse = -worse
	}
	qa := quartiles(a)
	iqr := qa[2] - qa[0]
	bWorst, aBest := slices.Max(b), slices.Min(a)
	if !lowerBetter {
		bWorst, aBest = slices.Min(b), slices.Max(a)
	}
	switch {
	case len(a) >= 10 && wins*10 >= 9*len(a) && -worse > iqr:
		return wins, "improved"
	case iqr > bound*am && !better(bWorst, aBest):
		return wins, "unresolved"
	case worse > bound*am:
		return wins, "regressed"
	}
	return wins, "no worse"
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which the repository's acceptance check uses.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return [3]float64{v, v, v}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
