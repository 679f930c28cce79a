package sim

import (
	"fmt"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// The soundness matrix: every counter-based scheme against every attack
// pattern in the repository, at the compressed security scale, judged by
// the ground-truth oracle. The paper's central claim — counter-based
// schemes have no false negatives (§II-C, §III-C) — must hold cell by
// cell.
func TestCounterSchemeSoundnessMatrix(t *testing.T) {
	timing := dram.Timing{
		TREFI: 244 * dram.Nanosecond, TRFC: 20 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
	const (
		rows = 8192
		trh  = 1200
		mid  = rows / 2
	)
	acts := timing.MaxACTs(timing.TREFW) * 3 / 2 // 1.5 windows

	sc := Scale{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows},
		Timing:   timing,
		Seed:     1,
	}

	attacks := []struct {
		name string
		mk   func() trace.Generator
	}{
		{"single-sided", func() trace.Generator { return workload.S3(0, mid, acts) }},
		{"double-sided", func() trace.Generator { return workload.DoubleSided(0, mid, acts) }},
		{"4-sided", func() trace.Generator { return workload.ManySided(0, mid, 4, acts) }},
		{"16-sided", func() trace.Generator { return workload.ManySided(0, mid, 16, acts) }},
		{"S1-10", func() trace.Generator { return workload.S1(0, rows, 10, acts) }},
		{"S2", func() trace.Generator { return workload.S2(0, rows, 10, 0.2, acts, 7) }},
		{"S4", func() trace.Generator { return workload.S4(0, rows, mid, 0.5, acts, 7) }},
		{"fig7a", func() trace.Generator { return workload.ProHITPattern(0, mid, acts) }},
		{"fig7b", func() trace.Generator { return workload.MRLocPattern(0, mid, 5, acts) }},
		{"edge-row", func() trace.Generator { return workload.S3(0, 0, acts) }},
		{"rotate-table-size", func() trace.Generator { return workload.RotateRows("rot", 0, 64, 3, 120, acts) }},
	}

	for _, schemeName := range []string{"graphene", "twice", "cbt", "cra", "perrow"} {
		factory, display, err := BuildScheme(schemeName, trh, 2, 1, rows, sc)
		if err != nil {
			t.Fatalf("%s: %v", schemeName, err)
		}
		for _, atk := range attacks {
			t.Run(fmt.Sprintf("%s/%s", schemeName, atk.name), func(t *testing.T) {
				res, err := memctrl.Run(memctrl.Config{
					Geometry: sc.Geometry, Timing: timing,
					Factory: factory, TRH: trh,
				}, atk.mk())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Flips) != 0 {
					t.Errorf("%s vs %s: %d bit flips (first: %v)", display, atk.name, len(res.Flips), res.Flips[0])
				}
				if res.MaxDisturbance >= float64(trh) {
					t.Errorf("%s vs %s: disturbance reached %g / %d", display, atk.name, res.MaxDisturbance, trh)
				}
			})
		}
	}
}

// The probabilistic schemes, in contrast, must NOT be sound against their
// tailored patterns — otherwise our attacks are toothless and the matrix
// above proves nothing.
func TestTailoredAttacksActuallyBite(t *testing.T) {
	timing := dram.Timing{
		TREFI: 244 * dram.Nanosecond, TRFC: 20 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
	const (
		rows = 8192
		trh  = 1200
	)
	acts := timing.MaxACTs(timing.TREFW)
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}

	// Unprotected: every attack flips.
	res, err := memctrl.Run(memctrl.Config{Geometry: geo, Timing: timing, TRH: trh},
		workload.ManySided(0, rows/2, 8, acts))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) == 0 {
		t.Error("8-sided attack on unprotected bank did not flip")
	}
}

// FuzzGrapheneSoundThroughController searches for an access pattern that
// makes Graphene miss a victim end to end: through memctrl.Run, with its
// auto-refresh interleaving, reset windows and RowPress weighting, judged
// by the ground-truth oracle. The leading fuzz byte picks the reset-window
// divisor k in 1–4 (Nentry 193, 144, 128 or 120, so the table's unpinned
// bitmap spans two to four words). Every three bytes after it are one
// tuple of the attack's cycle: a row offset from mid in [-8, 247], a gap
// of 0-3 tRC before the ACT, and a dwell of 0 (the device minimum) or 1-16
// x nRAS. Offsets below 9 hammer the ±8 neighbourhood of mid; the wider
// range lets a cycle hold more distinct rows than the table has entries,
// so it also drives evictions and the spillover count. The cycle repeats
// for 1.5 refresh windows at the compressed timing of
// TestCounterSchemeSoundnessMatrix. The paper's Theorem (§III-C) says no
// pattern flips a bit or brings any row to TRH.
func FuzzGrapheneSoundThroughController(f *testing.F) {
	timing := dram.Timing{
		TREFI: 244 * dram.Nanosecond, TRFC: 20 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
	const (
		rows = 8192
		trh  = 1200
		mid  = rows / 2
	)
	sc := Scale{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows},
		Timing:   timing,
		Seed:     1,
		Rowpress: true,
	}
	var factories [4]mitigation.Factory
	var displays [4]string
	for i := range factories {
		var err error
		factories[i], displays[i], err = BuildScheme("graphene", trh, i+1, 1, rows, sc)
		if err != nil {
			f.Fatal(err)
		}
	}

	f.Add([]byte{2, 7, 0, 0, 9, 0, 0}) // k=2, double-sided around mid
	sixteen := []byte{2}
	for off := byte(0); off < 16; off++ {
		sixteen = append(sixteen, off, 0, 0) // rows mid-8 ... mid+7
	}
	f.Add(sixteen)
	f.Add([]byte{2, 7, 0, 16, 9, 0, 16}) // rowpress-double: 16 x nRAS per ACT
	// One seed per other k: rotate one row more than the table holds, the
	// Misra-Gries worst case; the k=4 rotation dwells 8 x nRAS per ACT.
	for _, s := range []struct{ k, dwell byte }{{1, 0}, {3, 0}, {4, 8}} {
		p, err := graphene.Config{TRH: trh, K: int(s.k), Rows: rows, Timing: timing, Rowpress: true}.Derive()
		if err != nil {
			f.Fatal(err)
		}
		rotate := []byte{s.k}
		for off := 0; off <= p.NEntry; off++ {
			rotate = append(rotate, byte(off), 0, s.dwell)
		}
		f.Add(rotate)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := int(data[0]-1)%4 + 1 // bytes 1-4 are k itself
		factory, display := factories[k-1], displays[k-1]
		data = data[1:]
		cycle := make([]trace.Access, len(data)/3)
		for i := range cycle {
			b := data[3*i : 3*i+3]
			cycle[i] = trace.Access{
				Row:   mid + int(b[0]) - 8,
				Gap:   dram.Time(b[1]%4) * timing.TRC,
				Dwell: dram.Time(b[2]%17) * timing.NRAS(),
			}
		}
		// The cycle repeats until its own ACT cycles and gaps span 1.5
		// windows; the controller's REF stalls come on top.
		i, elapsed := 0, dram.Time(0)
		gen := trace.FromFunc("fuzz-cycle", func() (trace.Access, bool) {
			if elapsed >= timing.TREFW*3/2 {
				return trace.Access{}, false
			}
			a := cycle[i%len(cycle)]
			i++
			elapsed += a.Gap + timing.ActCycle(a.Dwell)
			return a, true
		})
		res, err := memctrl.Run(memctrl.Config{
			Geometry: sc.Geometry, Timing: timing,
			Factory: factory, TRH: trh,
		}, gen)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flips) != 0 {
			t.Fatalf("%s: %d bit flips over %d ACTs (first: %v)", display, len(res.Flips), res.ACTs, res.Flips[0])
		}
		if res.MaxDisturbance >= trh {
			t.Fatalf("%s: disturbance reached %g / %d", display, res.MaxDisturbance, trh)
		}
	})
}
