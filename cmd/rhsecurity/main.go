// Command rhsecurity reproduces the §V-A security analysis:
//
//   - the analytic PARA failure model and the minimal refresh probability
//     for near-complete protection (<1% failure per year), across Row
//     Hammer thresholds (the PARA-0.00145 … PARA-0.05034 series);
//   - Monte-Carlo failure measurements of the probabilistic schemes (PARA,
//     PRoHIT, MRLoc) under the adversarial patterns of Fig. 7, and of an
//     in-DRAM TRR sampler under single-row and TRRespass hammering (the
//     §II-B motivation), with the counter-based schemes as sound
//     references.
//
// The Monte-Carlo runs use a compressed scale (small bank, 2 ms window,
// proportionally low TRH) so the suite finishes in seconds; pass -windows
// and -trials to push it further.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/mrloc"
	"graphene/internal/para"
	"graphene/internal/prohit"
	"graphene/internal/report"
	"graphene/internal/security"
	"graphene/internal/trace"
	"graphene/internal/trr"
	"graphene/internal/workload"
)

func main() {
	var (
		trials = flag.Int("trials", 40, "Monte-Carlo trials per scheme/pattern")
		trh    = flag.Int64("trh", 1200, "scaled Row Hammer threshold for Monte-Carlo")
		mc     = flag.Bool("mc", true, "run the Monte-Carlo section")
	)
	flag.Parse()
	if err := run(os.Stdout, *trials, *trh, *mc); err != nil {
		fmt.Fprintln(os.Stderr, "rhsecurity:", err)
		os.Exit(1)
	}
}

// run renders the §V-A analysis to w; mc enables the Monte-Carlo section.
func run(w io.Writer, trials int, trhValue int64, mc bool) error {
	trh := &trhValue
	if err := report.SecurityVA(w); err != nil {
		return err
	}
	if !mc {
		return nil
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Monte-Carlo failure rates (compressed scale: 8K-row bank, 2 ms window,")
	fmt.Fprintln(w, "8192 REF ticks per window, TRH scaled so W/TRH matches the paper's ratio)")
	timing := dram.Timing{
		TREFI: 244 * dram.Nanosecond, // tREFW/8192, like the real system
		TRFC:  20 * dram.Nanosecond,
		TRC:   45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
	const rows = 8192
	acts := timing.MaxACTs(timing.TREFW) // one full compressed window

	// PARA probability sized for this compressed system, and the
	// equivalent per-REF-tick budget for PRoHIT (§V-A's "same number of
	// extra refreshes as PARA").
	sys := security.SystemConfig{Banks: 1, WindowsPerYear: 1e4, ActsPerWindow: acts}
	p, err := security.MinimalParaP(*trh, sys, 0.01)
	if err != nil {
		return err
	}
	tickP := p * float64(timing.MaxACTs(timing.TREFI))
	if tickP > 1 {
		tickP = 1
	}
	fmt.Fprintf(w, "scaled near-complete PARA p = %.5f at TRH %d (PRoHIT tick budget %.3f)\n\n", p, *trh, tickP)

	type entry struct {
		scheme  string
		factory mitigation.Factory
		pattern func(int) trace.Generator
	}
	mid := rows / 2
	single := func(int) trace.Generator { return workload.S3(0, mid, acts) }
	fig7a := func(int) trace.Generator { return workload.ProHITPattern(0, mid, acts) }
	fig7b := func(int) trace.Generator { return workload.MRLocPattern(0, mid, 5, acts) }
	trrespass := func(trial int) trace.Generator {
		return workload.TRRespassPattern(0, mid, 8, 0.1, acts, int64(trial))
	}
	// A two-entry sampler acting on every 64th REF: the compressed scale's
	// REF ticks are ~30× denser relative to the ACT rate than real tREFI,
	// so this is a realistic TRR refresh budget (internal/trr's
	// TestTRRespassReproduction uses the same device).
	trrDevice := trr.Config{SamplerEntries: 2, SampleP: 0.5, RefreshEvery: 64, Rows: rows, Seed: 1}

	entries := []entry{
		{"PARA vs single-row", para.Factory(para.Classic(p, rows, 1)), single},
		{"PRoHIT vs single-row", prohit.Factory(prohit.Config{Rows: rows, Seed: 1, TickRefreshP: tickP}), single},
		{"PRoHIT vs Fig.7(a)", prohit.Factory(prohit.Config{Rows: rows, Seed: 1, TickRefreshP: tickP}), fig7a},
		{"MRLoc vs single-row", mrloc.Factory(mrloc.Config{BaseP: p, Rows: rows, Seed: 1}), single},
		{"MRLoc vs Fig.7(b)", mrloc.Factory(mrloc.Config{BaseP: p, Rows: rows, Seed: 1}), fig7b},
		{"TRR vs single-row", trr.Factory(trrDevice), single},
		{"TRR vs TRRespass-8", trr.Factory(trrDevice), trrespass},
		{"Graphene vs Fig.7(a)", graphene.Factory(graphene.Config{TRH: *trh, K: 2, Rows: rows, Timing: timing}), fig7a},
		{"Graphene vs Fig.7(b)", graphene.Factory(graphene.Config{TRH: *trh, K: 2, Rows: rows, Timing: timing}), fig7b},
	}
	fmt.Fprintf(w, "  %-24s %12s %16s\n", "scheme vs pattern", "failures", "victim refr/run")
	for _, e := range entries {
		res, err := security.MonteCarlo(security.MCConfig{
			Factory: e.factory, Pattern: e.pattern,
			TRH: *trh, Rows: rows, Timing: timing, Trials: trials,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", e.scheme, err)
		}
		fmt.Fprintf(w, "  %-24s %6d/%-5d %16.1f\n", e.scheme, res.Failures, res.Trials, res.VictimsPerRun)
	}
	fmt.Fprintln(w, "\nReading: PRoHIT fails under Fig. 7(a) and MRLoc degrades to PARA under")
	fmt.Fprintln(w, "Fig. 7(b) (§V-A); in-DRAM TRR holds against the single-row hammer it was")
	fmt.Fprintln(w, "sized for and falls to many-sided TRRespass hammering (§II-B); the")
	fmt.Fprintln(w, "counter-based schemes never fail.")

	return rowPressSection(w, *trh, p)
}

// rowPressSection measures the open-row-duration attack on a DDR5 device:
// a double-sided aggressor pair holding each row open for 16× nRAS. The
// ground-truth oracle weighs disturbance by dwell, so TRH worth of charge
// leaks after TRH/16 activations — a count no duration-blind tracker acts
// on — while a Rowpress-configured Graphene weighs its counters the same
// way and loses nothing.
func rowPressSection(w io.Writer, trh int64, p float64) error {
	ddr5 := dram.DDR5()
	const rows = 8192
	mid := rows / 2
	dwell := 16 * ddr5.NRAS()
	acts := 4 * trh // several flips' worth, well under one refresh window

	fmt.Fprintf(w, "\nRowPress (DDR5-4800, double-sided, open-row dwell 16×nRAS = %d ps, %d ACTs):\n", dwell, acts)
	fmt.Fprintf(w, "  %-28s %8s %14s\n", "scheme", "flips", "victim refr")

	legacyGr := graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: ddr5}
	awareGr := legacyGr
	awareGr.Rowpress = true
	entries := []struct {
		name    string
		factory mitigation.Factory
	}{
		{"none (unprotected)", nil},
		{"PARA (duration-blind)", para.Factory(para.Classic(p, rows, 1))},
		{"Graphene (duration-blind)", graphene.Factory(legacyGr)},
		{"Graphene (rowpress)", graphene.Factory(awareGr)},
	}
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}
	for _, e := range entries {
		res, err := memctrl.Run(memctrl.Config{
			Geometry: geo, Timing: ddr5, Factory: e.factory, TRH: trh,
		}, workload.RowPressDouble(0, mid, dwell, acts))
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "  %-28s %8d %14d\n", e.name, len(res.Flips), res.RowsVictim)
	}
	fmt.Fprintln(w, "\nReading: activation counts alone miss RowPress — only the dwell-weighted")
	fmt.Fprintln(w, "tracker (rowpress) holds the zero-flip guarantee on DDR5.")
	return nil
}
