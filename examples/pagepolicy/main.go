// Pagepolicy: the row-buffer policies of Table III in front of Graphene.
//
// Row Hammer protection only sees ACT commands. A page policy that keeps
// rows open absorbs row-local requests and shrinks the ACT stream — but an
// attacker alternating between two rows forces an ACT per request under
// every policy, so the protection requirements don't change. This example
// measures both effects end-to-end through the memory-controller simulator.
//
// Run with: go run ./examples/pagepolicy
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/pagepolicy"
	"graphene/internal/sim"
	"graphene/internal/workload"
)

func main() {
	sc := sim.Quick()
	sc.WorkloadAccesses = 120_000
	timing := sc.Timing
	const trh = 50_000

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Println("mcf-like workload (120K requests, burst 4) through each policy:")
	fmt.Fprintln(tw, "policy\trequests\tACTs\trow-buffer hits\tGraphene victim refreshes")
	cells, err := sim.PagePolicySweep(sc, trh, "mcf", "graphene", 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%d\n",
			c.Policy, c.Requests, c.ACTs, 100*c.RowBufferHits, c.NRRCommands)
	}
	tw.Flush()

	mo4 := func() pagepolicy.Policy {
		p, err := pagepolicy.NewMinimalistOpen(4)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	policies := []struct {
		name    string
		factory pagepolicy.PolicyFactory
	}{
		{"closed-page", pagepolicy.NewClosedPage},
		{"minimalist-open-4", mo4},
		{"open-page", pagepolicy.NewOpenPage},
	}

	fmt.Println("\nalternating two-row attack (200K requests) through each policy:")
	fmt.Fprintln(tw, "policy\tACTs reaching DRAM\tGraphene victim refreshes\tbit flips")
	for _, pol := range policies {
		fe, err := pagepolicy.NewFrontend(workload.AttackRequests(0, 30_000, 30_002, 200_000), pol.factory, 1, timing)
		if err != nil {
			log.Fatal(err)
		}
		res, err := memctrl.Run(memctrl.Config{
			Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: sc.Geometry.RowsPerBank},
			Timing:   timing,
			Factory:  graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: sc.Geometry.RowsPerBank, Timing: timing}),
			TRH:      trh,
		}, fe)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", pol.name, res.ACTs, res.NRRCommands, len(res.Flips))
	}
	tw.Flush()
	fmt.Println("\nThe policy absorbs the workload's locality but nothing of the attack:")
	fmt.Println("Row Hammer protection must be provisioned for the full ACT rate (§II-B).")

}
