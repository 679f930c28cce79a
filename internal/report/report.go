// Package report renders every table and figure of the paper as text, one
// function per exhibit. cmd/rhtables exposes them on the command line; the
// benchmark harness and EXPERIMENTS.md are generated from the same code so
// the recorded numbers always match the implementation.
package report

import (
	"fmt"
	"io"

	"graphene/internal/area"
	"graphene/internal/dram"
	"graphene/internal/energy"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/plot"
	"graphene/internal/security"
	"graphene/internal/sim"
	"graphene/internal/sketch"
	"graphene/internal/stats"
)

// Table1 prints the DDR4 refresh parameters (Table I).
func Table1(w io.Writer) error {
	t := dram.DDR4()
	fmt.Fprintln(w, "Table I: DDR4 refresh parameters (JEDEC JESD79-4B)")
	fmt.Fprintf(w, "  %-8s %-28s %s\n", "Term", "Definition", "Value")
	fmt.Fprintf(w, "  %-8s %-28s %s\n", "tREFI", "Refresh interval", t.TREFI)
	fmt.Fprintf(w, "  %-8s %-28s %s\n", "tRFC", "Refresh command time", t.TRFC)
	fmt.Fprintf(w, "  %-8s %-28s %s\n", "tRC", "ACT to ACT interval", t.TRC)
	fmt.Fprintf(w, "  %-8s %-28s %s\n", "tREFW", "Refresh window (assumed)", t.TREFW)
	return nil
}

// Table2 prints the Graphene parameters for ±1 Row Hammer (Table II).
func Table2(w io.Writer, trh int64) error {
	p, err := graphene.Config{TRH: trh, K: 1}.Derive()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table II: Graphene parameters (±1 Row Hammer, K=1)\n")
	fmt.Fprintf(w, "  %-8s %-42s %d\n", "TRH", "Row Hammer threshold", trh)
	fmt.Fprintf(w, "  %-8s %-42s %d\n", "W", "Max ACTs in a reset window", p.W)
	fmt.Fprintf(w, "  %-8s %-42s %d\n", "T", "Threshold for aggressor tracking", p.T)
	fmt.Fprintf(w, "  %-8s %-42s %d\n", "Nentry", "Number of table entries", p.NEntry)
	fmt.Fprintf(w, "  (paper: W 1,360K, T 12.5K, Nentry 108)\n")
	return nil
}

// Table3 prints the simulated system configuration (Table III).
func Table3(w io.Writer) error {
	g := dram.Default()
	t := dram.DDR4()
	fmt.Fprintln(w, "Table III: simulated memory-system configuration")
	fmt.Fprintf(w, "  Module        DDR4-2400\n")
	fmt.Fprintf(w, "  Configuration %d channels; %d rank(s) per channel; %d banks per rank\n",
		g.Channels, g.RanksPerChan, g.BanksPerRank)
	fmt.Fprintf(w, "  Rows per bank %d\n", g.RowsPerBank)
	fmt.Fprintf(w, "  tRFC, tRC     %s, %s\n", t.TRFC, t.TRC)
	fmt.Fprintf(w, "  tRCD/tRP/tCL  %s each\n", t.TRCD)
	fmt.Fprintf(w, "  (CPU-side parameters of the paper are subsumed by the trace model; DESIGN.md §3)\n")
	return nil
}

// Table4 prints the per-bank table-size comparison (Table IV).
func Table4(w io.Writer, trh int64) error {
	entries, err := area.Schemes(trh, dram.Default(), dram.DDR4())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table IV: tracking-table size per bank at TRH = %d\n", trh)
	fmt.Fprintf(w, "  %-14s %10s %10s %10s   %s\n", "Scheme", "CAM bits", "SRAM bits", "entries", "paper (CAM+SRAM)")
	for _, e := range entries {
		paper := ""
		if p, ok := area.PaperTable4[e.Scheme]; ok && trh == 50000 {
			paper = fmt.Sprintf("%d + %d", p.CAMBits, p.SRAMBits)
		}
		fmt.Fprintf(w, "  %-14s %10d %10d %10d   %s\n",
			e.Scheme, e.PerBank.CAMBits, e.PerBank.SRAMBits, e.PerBank.Entries, paper)
	}
	return nil
}

// Table5 prints the energy-model constants (Table V).
func Table5(w io.Writer) error {
	fmt.Fprintln(w, "Table V: Graphene vs DRAM energy (nJ)")
	fmt.Fprintf(w, "  Graphene dynamic per ACT       %.2e\n", energy.GrapheneDynamicPerACT)
	fmt.Fprintf(w, "  Graphene static per tREFW      %.2e\n", energy.GrapheneStaticPerTREFW)
	fmt.Fprintf(w, "  DRAM ACT+PRE                   %.2f\n", energy.ActPrePerOp)
	fmt.Fprintf(w, "  DRAM REFs per bank per tREFW   %.2e\n", energy.RefreshPerBankPerTREFW)
	fmt.Fprintf(w, "  dynamic/ACT+PRE = %.3f%%, static/refresh = %.3f%%\n",
		100*energy.GrapheneDynamicPerACT/energy.ActPrePerOp,
		100*energy.GrapheneStaticPerTREFW/energy.RefreshPerBankPerTREFW)
	return nil
}

// Fig6 prints the reset-window sweep (Fig. 6).
func Fig6(w io.Writer, trh int64) error {
	rows, err := sim.Fig6(trh, 64*1024, dram.DDR4(), 1, 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 6: reset window tREFW/k trade-off at TRH = %d (worst case, per bank)\n", trh)
	fmt.Fprintf(w, "  %-3s %8s %8s %22s\n", "k", "T", "Nentry", "extra refreshes/tREFW")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-3d %8d %8d %22s\n", r.K, r.T, r.NEntry, stats.Pct(r.WorstCaseRefreshRatio))
	}
	entries := make([]plot.Bar, 0, len(rows))
	extra := make([]plot.Bar, 0, len(rows))
	for _, r := range rows {
		label := fmt.Sprintf("k=%d", r.K)
		entries = append(entries, plot.Bar{Label: label, Value: float64(r.NEntry)})
		extra = append(extra, plot.Bar{Label: label, Value: 100 * r.WorstCaseRefreshRatio})
	}
	if err := plot.Bars(w, "  table entries:", entries); err != nil {
		return err
	}
	return plot.Bars(w, "  worst-case extra refreshes (%):", extra)
}

// Fig7 prints the adversarial access patterns of Fig. 7.
func Fig7(w io.Writer) error {
	fmt.Fprintln(w, "Fig. 7: vulnerable access patterns")
	fmt.Fprintln(w, "  (a) PRoHIT: {x-4, x-2, x-2, x, x, x, x+2, x+2, x+4}*  (7-entry tables)")
	fmt.Fprintln(w, "  (b) MRLoc:  {x1, x2, ..., x7, x8}*                    (15-entry queue)")
	fmt.Fprintln(w, "  Generators: workload.ProHITPattern, workload.MRLocPattern;")
	fmt.Fprintln(w, "  measured failure rates: rhsecurity / internal/security Monte-Carlo.")
	return nil
}

// Fig8 prints the overhead comparison on normal workloads and adversarial
// patterns (Fig. 8(a)–(c)).
func Fig8(w io.Writer, sc sim.Scale, trh int64) error {
	fmt.Fprintf(w, "Fig. 8(a)+(c): refresh-energy overhead and performance loss, normal workloads (TRH %d)\n", trh)
	normal, err := sim.NormalSweepOpts(sc, trh, sim.Options{})
	if err != nil {
		return err
	}
	printRows(w, normal, true)

	fmt.Fprintf(w, "\nFig. 8(b): refresh-energy overhead, adversarial patterns (single bank)\n")
	adv, err := sim.AdversarialSweepOpts(sc, trh, sim.Options{})
	if err != nil {
		return err
	}
	printRows(w, adv, false)
	return nil
}

// Fig9 prints the Row Hammer threshold scaling study (Fig. 9(a)–(d)).
func Fig9(w io.Writer, sc sim.Scale, trhs []int64) error {
	fmt.Fprintln(w, "Fig. 9(a): table size per rank (bits) across Row Hammer thresholds")
	sweep, err := area.Sweep(dram.Default(), dram.DDR4())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-8s %14s %14s %14s\n", "TRH", "CBT", "TWiCe", "Graphene")
	var bars []plot.Bar
	for _, trh := range trhs {
		entries := sweep[trh]
		bits := map[string]int{}
		for _, e := range entries {
			bits[e.Scheme[:3]] = e.PerRank.TotalBits()
		}
		fmt.Fprintf(w, "  %-8d %14d %14d %14d\n", trh, bits["cbt"], bits["twi"], bits["gra"])
		bars = append(bars,
			plot.Bar{Label: fmt.Sprintf("%d TWiCe", trh), Value: float64(bits["twi"])},
			plot.Bar{Label: fmt.Sprintf("%d Graphene", trh), Value: float64(bits["gra"])},
		)
	}
	if err := plot.LogBars(w, "  bits per rank (log scale):", bars); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nFig. 9(b)+(d): average refresh-energy overhead / performance loss, normal workloads")
	norm, err := sim.ScalingNormalOpts(sc, trhs, sim.Options{})
	if err != nil {
		return err
	}
	printScaling(w, norm, true)

	fmt.Fprintln(w, "\nFig. 9(c): average refresh-energy overhead, adversarial patterns")
	adv, err := sim.ScalingAdversarialOpts(sc, trhs, sim.Options{})
	if err != nil {
		return err
	}
	printScaling(w, adv, false)
	return nil
}

// SecurityVA prints the §V-A analysis: the PARA probability series and the
// Monte-Carlo failure rates of the probabilistic schemes.
func SecurityVA(w io.Writer) error {
	fmt.Fprintln(w, "§V-A: PARA refresh probability for near-complete protection (<1%/year)")
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "TRH", "derived p", "paper p")
	sys := security.DefaultSystem()
	for _, trh := range area.ScalingThresholds() {
		p, err := security.MinimalParaP(trh, sys, 0.01)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8d %12.5f %12.5f\n", trh, p, security.PaperParaP[trh])
	}
	return nil
}

// SectionVI prints the §VI related-work comparison: the frequent-elements
// alternatives implemented in internal/sketch against Graphene's
// Misra-Gries table, at the paper's configuration.
func SectionVI(w io.Writer, trh int64) error {
	g, err := graphene.New(graphene.Config{TRH: trh, K: 2})
	if err != nil {
		return err
	}
	cms, err := sketch.NewCMS(sketch.CMSConfig{TRH: trh, K: 2})
	if err != nil {
		return err
	}
	ss, err := sketch.NewSpaceSaving(sketch.SSConfig{TRH: trh, K: 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§VI: frequent-elements alternatives at TRH = %d (all sound; bits per bank)\n", trh)
	fmt.Fprintf(w, "  %-22s %10s %10s %10s\n", "tracker", "entries", "bits", "vs MG")
	mg := g.Cost()
	for _, m := range []interface {
		Name() string
		Cost() mitigation.HardwareCost
	}{g, ss, cms} {
		c := m.Cost()
		fmt.Fprintf(w, "  %-22s %10d %10d %9.1f×\n",
			m.Name(), c.Entries, c.TotalBits(), float64(c.TotalBits())/float64(mg.TotalBits()))
	}
	fmt.Fprintln(w, "  (Misra-Gries wins on bits because threshold-pinned entries admit the")
	fmt.Fprintln(w, "  §IV-B overflow-bit compression; Count-Min counters must stay full-width.)")
	return nil
}

func printRows(w io.Writer, rows []sim.Row, slowdown bool) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-16s", "workload")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " %16s", c.Scheme)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s", r.Workload)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %16s", stats.Pct(c.RefreshOverhead))
		}
		fmt.Fprintln(w)
		if slowdown {
			fmt.Fprintf(w, "  %-16s", "  (perf loss)")
			for _, c := range r.Cells {
				fmt.Fprintf(w, " %16s", stats.Pct(stats.WeightedSpeedupLoss(c.Slowdown)))
			}
			fmt.Fprintln(w)
		}
	}
}

func printScaling(w io.Writer, rows []sim.ScalingRow, slowdown bool) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-8s", "TRH")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(w, " %16s", c.Scheme)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d", r.TRH)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %16s", stats.Pct(c.RefreshOverhead))
		}
		fmt.Fprintln(w)
		if slowdown {
			fmt.Fprintf(w, "  %-8s", "(perf)")
			for _, c := range r.Cells {
				fmt.Fprintf(w, " %16s", stats.Pct(stats.WeightedSpeedupLoss(c.Slowdown)))
			}
			fmt.Fprintln(w)
		}
	}
}

// SectionVD prints the §V-D non-adjacent Row Hammer cost comparison: the
// (1 + μ₂ + … + μₙ) table growth of the counter-based schemes and the
// matching refresh-probability growth of PARA.
func SectionVD(w io.Writer, trh int64) error {
	fmt.Fprintf(w, "§V-D: non-adjacent (±n) Row Hammer costs at TRH = %d (μ = 1/i²)\n", trh)
	fmt.Fprintf(w, "  %-3s %10s %12s %14s %18s\n", "n", "amp", "Graphene T", "Graphene bits", "PARA refresh ×")
	base, err := graphene.Config{TRH: trh, K: 2}.Derive()
	if err != nil {
		return err
	}
	for n := 1; n <= 4; n++ {
		p, err := graphene.Config{TRH: trh, K: 2, Distance: n, Mu: graphene.InverseSquareMu}.Derive()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-3d %10.3f %12d %14d %18.3f\n",
			n, p.AmpFactor, p.T, p.TableBits, p.AmpFactor)
	}
	fmt.Fprintf(w, "  table growth bound: Σ1/k² ≈ 1.645× (±1 table: %d bits); victim rows per NRR grow ∝ n\n", base.TableBits)
	fmt.Fprintln(w, "  TWiCe scales by the same factor; CBT's region refreshes additionally widen by n (§V-D).")
	return nil
}

// Future prints the conclusion's forward-looking story: Graphene's derived
// parameters on the DDR5 projection across shrinking Row Hammer
// thresholds, next to DDR4 — the "memory systems of today and the future".
func Future(w io.Writer) error {
	fmt.Fprintln(w, "Conclusion: Graphene on DDR4 vs a DDR5 projection (K=2, per bank)")
	fmt.Fprintf(w, "  %-8s %22s %22s\n", "TRH", "DDR4 (T / N / bits)", "DDR5 (T / N / bits)")
	for _, trh := range []int64{50000, 20000, 6250, 1562} {
		p4, err := graphene.Config{TRH: trh, K: 2, Timing: dram.DDR4()}.Derive()
		if err != nil {
			return err
		}
		p5, err := graphene.Config{TRH: trh, K: 2, Timing: dram.DDR5()}.Derive()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8d %8d/%5d/%7d %8d/%5d/%7d\n",
			trh, p4.T, p4.NEntry, p4.TableBits, p5.T, p5.NEntry, p5.TableBits)
	}
	fmt.Fprintln(w, "  (DDR5's shorter retention window shrinks W per reset window, so the")
	fmt.Fprintln(w, "  table stays small even as thresholds keep falling — the scalability claim.)")
	return nil
}
