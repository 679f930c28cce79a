package sim

import (
	"fmt"

	"graphene/internal/memctrl"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// AdversarialPatterns returns the §V-B attack suite (S1-10, S1-20, S2, S3,
// S4) targeting bank 0 of the scale's geometry at the maximum activation
// rate, each sustained for sc.AdversarialWindows refresh windows.
func AdversarialPatterns(sc Scale) []func() trace.Generator {
	rows := sc.Geometry.RowsPerBank
	total := int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
	return []func() trace.Generator{
		func() trace.Generator { return workload.S1(0, rows, 10, total) },
		func() trace.Generator { return workload.S1(0, rows, 20, total) },
		func() trace.Generator { return workload.S2(0, rows, 10, 0.2, total, sc.Seed) },
		func() trace.Generator { return workload.S3(0, rows/2, total) },
		func() trace.Generator { return workload.S4(0, rows, rows/2, 0.5, total, sc.Seed) },
	}
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
	total := int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
	return workload.RotateRows("graphene-worst", 0, 64, 7, nentry, total)
}
