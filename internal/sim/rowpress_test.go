package sim

import (
	"fmt"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// TestRowPressEndToEnd is the headline RowPress security experiment on a
// real DDR5 device profile: an aggressor holding its row open for 16× nRAS
// per activation flips victims under no protection and under every
// duration-blind tracker — the oracle weighs disturbance by open-row time,
// so TRH worth of charge leaks after only TRH/16 ACTs, below the ACT count
// any activation counter waits for — while the same schemes with the
// Rowpress knob weigh their increments the same way and lose no victims.
func TestRowPressEndToEnd(t *testing.T) {
	prof, err := dram.ProfileByName("ddr5")
	if err != nil {
		t.Fatal(err)
	}
	timing := prof.Timing
	const (
		rows = 8192
		trh  = 1200
		mid  = rows / 2
	)
	dwell := 16 * timing.NRAS()
	// Enough weighted ACTs to flip several times over, still well under one
	// refresh window of wall time.
	acts := int64(4 * trh)

	sc := Scale{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows},
		Timing:   timing,
		Seed:     1,
	}
	rpSc := sc
	rpSc.Rowpress = true

	attacks := []struct {
		name string
		mk   func() trace.Generator
	}{
		{"rowpress-single", func() trace.Generator { return workload.RowPressSingle(0, mid, dwell, acts) }},
		{"rowpress-double", func() trace.Generator { return workload.RowPressDouble(0, mid, dwell, acts) }},
	}

	run := func(t *testing.T, schemeName string, scale Scale, mk func() trace.Generator) memctrl.Result {
		t.Helper()
		factory, _, err := BuildScheme(schemeName, trh, 2, 1, rows, scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := memctrl.Run(memctrl.Config{
			Geometry: scale.Geometry, Timing: timing,
			Factory: factory, TRH: trh,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, atk := range attacks {
		// Unprotected: the duration-weighted oracle must flip — this is the
		// attack working at all.
		t.Run("none/"+atk.name, func(t *testing.T) {
			res := run(t, "none", sc, atk.mk)
			if len(res.Flips) == 0 {
				t.Fatalf("unprotected %s: no flips — RowPress weighting not reaching the oracle", atk.name)
			}
		})
		// Duration-blind trackers: the ACT count stays below every refresh
		// threshold while the charge leaks, so the victim flips anyway.
		for _, scheme := range []string{"graphene", "para"} {
			t.Run(scheme+"-legacy/"+atk.name, func(t *testing.T) {
				res := run(t, scheme, sc, atk.mk)
				if len(res.Flips) == 0 {
					t.Fatalf("duration-blind %s vs %s: no flips — expected RowPress false negatives", scheme, atk.name)
				}
			})
		}
		// Duration-aware counter schemes: increments weigh dwell at least as
		// heavily as the oracle does, so no victim is lost.
		for _, scheme := range []string{"graphene", "twice", "cbt"} {
			t.Run(scheme+"-rowpress/"+atk.name, func(t *testing.T) {
				res := run(t, scheme, rpSc, atk.mk)
				if len(res.Flips) != 0 {
					t.Errorf("rowpress-aware %s vs %s: %d flips (first: %v)", scheme, atk.name, len(res.Flips), res.Flips[0])
				}
			})
		}
	}
}

// TestRowPressDwellEqualsNRASMatchesLegacy pins the compatibility core of
// the dwell refactor: a trace whose every access carries Dwell == nRAS
// explicitly must produce byte-identical results to the same trace with the
// dwell column absent, on every scheme, rowpress on or off — the weighted
// models all reduce to the legacy per-ACT model at the device minimum.
//
// The ddr5/ leg runs the same check on dram.DDR5(), whose nRAS (34.7 ns)
// exceeds DDR4's 31.7 ns: a scheme that weighed dwell against any nRAS
// but its device's would count each minimum-dwell ACT twice there. On
// DDR5, nRAS = tRC − tRP, so the pinned dwell leaves bank occupancy
// unchanged.
func TestRowPressDwellEqualsNRASMatchesLegacy(t *testing.T) {
	small := dram.Timing{
		TREFI: 244 * dram.Nanosecond, TRFC: 20 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond, TRAS: 30 * dram.Nanosecond,
	}
	const (
		rows = 8192
		trh  = 1200
	)
	legs := []struct {
		prefix string
		timing dram.Timing
		acts   int64
	}{
		{"", small, small.MaxACTs(small.TREFW)},
		{"ddr5/", dram.DDR5(), 200_000},
	}
	for _, leg := range legs {
		timing := leg.timing
		base := Scale{
			Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows},
			Timing:   timing,
			Seed:     1,
		}
		mkTrace := func(dwell dram.Time) trace.Generator {
			gen := workload.S2(0, rows, 10, 0.2, leg.acts, 7)
			return trace.FromFunc(gen.Name(), func() (trace.Access, bool) {
				a, ok := gen.Next()
				a.Dwell = dwell
				return a, ok
			})
		}
		for _, schemeName := range SchemeNames() {
			for _, rowpress := range []bool{false, true} {
				sc := base
				sc.Rowpress = rowpress
				t.Run(fmt.Sprintf("%s%s/rowpress=%v", leg.prefix, schemeName, rowpress), func(t *testing.T) {
					var results [2]memctrl.Result
					for i, dwell := range []dram.Time{0, timing.NRAS()} {
						factory, _, err := BuildScheme(schemeName, trh, 2, 1, rows, sc)
						if err != nil {
							t.Fatal(err)
						}
						res, err := memctrl.Run(memctrl.Config{
							Geometry: sc.Geometry, Timing: timing,
							Factory: factory, TRH: trh,
						}, mkTrace(dwell))
						if err != nil {
							t.Fatal(err)
						}
						results[i] = res
					}
					legacy, pinned := results[0], results[1]
					if legacy.NRRCommands != pinned.NRRCommands ||
						legacy.RowsVictim != pinned.RowsVictim ||
						len(legacy.Flips) != len(pinned.Flips) ||
						legacy.MaxDisturbance != pinned.MaxDisturbance ||
						legacy.REFCommands != pinned.REFCommands {
						t.Errorf("dwell=nRAS diverged from legacy: NRR %d vs %d, victims %d vs %d, flips %d vs %d, maxDist %g vs %g, REF %d vs %d",
							legacy.NRRCommands, pinned.NRRCommands,
							legacy.RowsVictim, pinned.RowsVictim,
							len(legacy.Flips), len(pinned.Flips),
							legacy.MaxDisturbance, pinned.MaxDisturbance,
							legacy.REFCommands, pinned.REFCommands)
					}
				})
			}
		}
	}
}
