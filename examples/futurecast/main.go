// Futurecast: parameterize the paper's analytic response-time model from
// simulation measurements and extrapolate scheduling policy behaviour to
// future machines (Section 7, Figures 8-13).
//
// The program (1) measures cache penalties P^A/P^NA with the Section-4
// protocol, (2) runs the mix-5 scheduling experiment under each policy,
// (3) extracts the model parameters, and (4) sweeps processor-speed ×
// cache-size to find where each dynamic policy stops beating Equipartition.
//
// Run with:
//
//	go run ./examples/futurecast [-fast]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/model"
)

func main() {
	fast := flag.Bool("fast", false, "scaled-down quick mode")
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *fast {
		opts = experiments.FastOptions()
	}
	ctx := context.Background()

	// Step 1-2: measurements, as two campaigns: the mix-5 policy
	// comparison and the Table-1 penalty measurements.
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	cmp, err := experiments.Run(ctx, "compare", experiments.CampaignParams{Fast: *fast, Mix: 5, Policies: policies})
	if err != nil {
		log.Fatal(err)
	}
	t1, err := experiments.Run(ctx, "table1", experiments.CampaignParams{Fast: *fast})
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: parameter extraction.
	scen, err := experiments.FutureScenarios(cmp.(experiments.CompareCampaignResult),
		t1.(experiments.Table1CampaignResult).Table1(), opts)
	if err != nil {
		log.Fatal(err)
	}
	key := experiments.ScenarioKey{Mix: 5, App: "GRAVITY"}
	sc := scen[key]
	fmt.Printf("Extracted model parameters for %s:\n", key)
	for _, pol := range policies {
		p := sc.Policies[pol]
		fmt.Printf("  %-14s work=%6.1f waste=%6.1f reallocs=%6.0f %%aff=%3.0f%% "+
			"P^A=%4.0fµs P^NA=%4.0fµs alloc=%4.1f\n",
			pol, p.Work, p.Waste, p.Reallocations, 100*p.PctAffinity,
			p.PA*1e6, p.PNA*1e6, p.AvgAlloc)
	}
	fmt.Println()

	// Step 4: sweep and crossovers.
	dynamic := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	sweep, err := experiments.FutureSweep(scen, dynamic, 4096)
	if err != nil {
		log.Fatal(err)
	}
	charts, err := experiments.FutureCharts(sweep, dynamic)
	if err != nil {
		log.Fatal(err)
	}
	for _, ch := range charts {
		if err := ch.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	products := model.Products(1<<22, 4)
	fmt.Println("\nCrossover products (where the policy stops beating Equipartition):")
	for _, pol := range dynamic {
		cross, err := sc.Crossover(pol, products)
		if err != nil {
			log.Fatal(err)
		}
		if cross == 0 {
			fmt.Printf("  %-14s never (within speed*cache <= %d)\n", pol, 1<<22)
		} else {
			fmt.Printf("  %-14s at speed*cache ~ %.0f\n", pol, cross)
		}
	}
	fmt.Println("\nThe oblivious Dynamic policy degrades first; adding affinity (Dyn-Aff)")
	fmt.Println("pushes the crossover out, and adding yield-delay pushes it further —")
	fmt.Println("the paper's Section 7 conclusion that affinity and yield-delay cost")
	fmt.Println("nothing today and matter on future machines.")
}
