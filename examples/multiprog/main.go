// Multiprog: the paper's full Section-6 experiment in one program — all six
// Table-2 workload mixes scheduled under all five policies, with per-job
// metrics and response times relative to Equipartition.
//
// Run with (about a minute at paper scale, or use -fast):
//
//	go run ./examples/multiprog [-fast]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	fast := flag.Bool("fast", false, "scaled-down applications and fewer replications")
	flag.Parse()

	// The compare campaign: every mix under every policy, replicated. -fast
	// selects the scaled-down preset (smaller applications, 2 replications).
	v, err := experiments.Run(context.Background(), "compare", experiments.CampaignParams{
		Fast:     *fast,
		Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := v.(experiments.CompareCampaignResult)

	// Figure 5: the well-behaved dynamic policies.
	fig5, err := experiments.Figure5Report(res, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
	if err != nil {
		log.Fatal(err)
	}
	must(fig5.Write(os.Stdout))
	fmt.Println()

	// Figure 6: the artificial no-priority variant — note how erratic the
	// ratios are compared to Figure 5.
	fig6, err := experiments.Figure5Report(res, []string{"Dyn-Aff-NoPri"})
	if err != nil {
		log.Fatal(err)
	}
	fig6.Title = "Figure 6 — Dyn-Aff-NoPri relative to Equipartition (unfairness!)"
	must(fig6.Write(os.Stdout))
	fmt.Println()

	// Table 3: why affinity doesn't matter (yet): compare the affinity
	// percentages with the response times.
	t3, err := experiments.Table3Report(res, 5, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
	if err != nil {
		log.Fatal(err)
	}
	must(t3.Write(os.Stdout))
	fmt.Println()

	// Table 4: sacrificing fairness for affinity buys (at best) noise.
	t4, err := experiments.Table4Report(res, []int{1, 4}, "Dyn-Aff", "Dyn-Aff-NoPri")
	if err != nil {
		log.Fatal(err)
	}
	must(t4.Write(os.Stdout))

	fmt.Println()
	fmt.Println("Observations (cf. Section 6 of the paper):")
	fmt.Println(" 1. every dynamic policy beats Equipartition on every job (Fig 5 <= 1);")
	fmt.Println(" 2. the three dynamic variants are nearly identical today — affinity")
	fmt.Println("    scheduling buys almost nothing because cache penalties are small")
	fmt.Println("    compared with the time between reallocations (Table 3);")
	fmt.Println(" 3. ignoring the priority scheme makes response times erratic (Fig 6),")
	fmt.Println("    so fairness should not be sacrificed to affinity (Table 4).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
