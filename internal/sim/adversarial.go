package sim

import (
	"fmt"

	"graphene/internal/memctrl"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// adversarialSuite is the §V-B attack suite in the order its sweeps report
// it. Each pattern targets bank 0, of rows rows, and issues total ACTs
// (attackACTs). BuildWorkload resolves the names and AdversarialPatterns
// builds the whole suite, so both replay the same streams.
var adversarialSuite = []struct {
	name string
	gen  func(rows int, total, seed int64) trace.Generator
}{
	{"S1-10", func(rows int, total, _ int64) trace.Generator { return workload.S1(0, rows, 10, total) }},
	{"S1-20", func(rows int, total, _ int64) trace.Generator { return workload.S1(0, rows, 20, total) }},
	{"S2", func(rows int, total, seed int64) trace.Generator { return workload.S2(0, rows, 10, 0.2, total, seed) }},
	{"S3", func(rows int, total, _ int64) trace.Generator { return workload.S3(0, rows/2, total) }},
	{"S4", func(rows int, total, seed int64) trace.Generator {
		return workload.S4(0, rows, rows/2, 0.5, total, seed)
	}},
}

// attackACTs is the length of an attack pattern: sc.AdversarialWindows
// refresh windows at the maximum activation rate.
func attackACTs(sc Scale) int64 {
	return int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
}

// AdversarialPatterns returns the §V-B attack suite (S1-10, S1-20, S2, S3,
// S4) targeting bank 0 of the scale's geometry at the maximum activation
// rate, each sustained for sc.AdversarialWindows refresh windows: the
// streams BuildWorkload returns for those names.
func AdversarialPatterns(sc Scale) []func() trace.Generator {
	rows, total := sc.Geometry.RowsPerBank, attackACTs(sc)
	pats := make([]func() trace.Generator, len(adversarialSuite))
	for i, p := range adversarialSuite {
		pats[i] = func() trace.Generator { return p.gen(rows, total, sc.Seed) }
	}
	return pats
}

// RunAttack replays one attack generator under one scheme, seeded at
// sc.Seed, on a single-bank geometry and returns the measured cell. Tools,
// examples, and tests use it for one-off attack measurements.
func RunAttack(sc Scale, trh int64, spec Spec, gen trace.Generator) (Cell, error) {
	res, err := memctrl.Run(memctrl.Config{
		Geometry: singleBank(sc).Geometry, Timing: sc.Timing,
		Factory: spec.factory(sc.Seed), TRH: trh,
	}, gen)
	if err != nil {
		return Cell{}, fmt.Errorf("sim: attack %s/%s: %w", gen.Name(), spec.Name, err)
	}
	return Cell{
		Scheme:          spec.Name,
		RefreshOverhead: res.RefreshOverhead(),
		VictimRows:      res.RowsVictim,
		NRRCommands:     res.NRRCommands,
		Flips:           len(res.Flips),
	}, nil
}

// WorstCase returns the pattern maximizing Graphene's victim refreshes: a
// round-robin rotation over as many rows as the counter table holds, so
// every entry marches to T (and multiples of T) together. Fig. 6's
// worst-case curve and the Graphene bars of Fig. 8(b) use it.
func WorstCase(sc Scale, nentry int) trace.Generator {
	return workload.RotateRows("graphene-worst", 0, 64, 7, nentry, attackACTs(sc))
}
