// Scaling: the Fig. 9 story — how each protection scheme's cost grows as
// technology scaling pushes the Row Hammer threshold down from 50K (DDR4
// today) to 1.56K (projected).
//
// It prints the per-rank table sizes (Fig. 9(a)) from the area models, the
// derived PARA probabilities (§V-C), and a compressed-scale adversarial
// energy measurement per threshold (Fig. 9(c) shape).
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"graphene/internal/area"
	"graphene/internal/dram"
	"graphene/internal/sim"
	"graphene/internal/stats"
)

func main() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)

	fmt.Println("Fig. 9(a): tracking-table size per rank (KiB) vs Row Hammer threshold")
	sweep, err := area.Sweep(dram.Default(), dram.DDR4())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(tw, "TRH\tCBT\tTWiCe\tGraphene\tTWiCe/Graphene")
	for _, trh := range area.ScalingThresholds() {
		kib := map[string]float64{}
		for _, e := range sweep[trh] {
			kib[e.Scheme[:3]] = float64(e.PerRank.TotalBits()) / 8 / 1024
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1f×\n",
			trh, kib["cbt"], kib["twi"], kib["gra"], kib["twi"]/kib["gra"])
	}
	tw.Flush()

	fmt.Println("\n§V-C: PARA refresh probability for near-complete protection")
	fmt.Fprintln(tw, "TRH\tp")
	for _, trh := range area.ScalingThresholds() {
		p, err := sim.ParaP(trh)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%d\t%.5f\n", trh, p)
	}
	tw.Flush()

	fmt.Println("\nFig. 9(c) shape: adversarial refresh-energy overhead vs threshold")
	fmt.Println("(single bank, 0.2 refresh windows per point — shapes, not absolutes)")
	sc := sim.Quick()
	sc.AdversarialWindows = 0.2
	rows, err := sim.ScalingAdversarialOpts(sc, []int64{50000, 12500, 3125}, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprint(tw, "TRH")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(tw, "\t%s", c.Scheme)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d", r.TRH)
		for _, c := range r.Cells {
			fmt.Fprintf(tw, "\t%s", stats.Pct(c.RefreshOverhead))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println("\nTakeaway (§V-C): every scheme's overhead grows as TRH falls, but")
	fmt.Println("Graphene's table stays an order of magnitude below TWiCe's while its")
	fmt.Println("worst-case refresh overhead stays bounded — the scalability headline.")
}
