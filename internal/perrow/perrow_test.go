package perrow

import (
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

func smallTiming() dram.Timing {
	return dram.Timing{
		TREFI: 7800 * dram.Nanosecond, TRFC: 350 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := New(Config{TRH: 2}); err == nil {
		t.Error("accepted TRH below 4")
	}
	if _, err := New(Config{TRH: 1000, Rows: -1}); err == nil {
		t.Error("accepted negative rows")
	}
}

func TestTriggerAtThreshold(t *testing.T) {
	p, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i < p.Threshold(); i++ {
		if vrs := p.AppendOnActivate(nil, 9, 0); len(vrs) != 0 {
			t.Fatalf("premature refresh at ACT %d", i)
		}
	}
	vrs := p.AppendOnActivate(nil, 9, 0)
	if len(vrs) != 1 || vrs[0].Aggressor != 9 {
		t.Fatalf("at threshold: %v", vrs)
	}
	if p.Count(9) != 0 {
		t.Error("count not reset after trigger")
	}
}

func TestTickClearsRefreshedRows(t *testing.T) {
	p, err := New(Config{TRH: 50000, Rows: 1 << 12, Timing: smallTiming()})
	if err != nil {
		t.Fatal(err)
	}
	p.AppendOnActivate(nil, 0, 0)
	p.AppendOnActivate(nil, 1, 0)
	// Ticks clear rows in rolling order starting at 0.
	p.AppendTick(nil, 0)
	if p.Count(0) != 0 {
		t.Error("tick did not clear the refreshed row's counter")
	}
}

func TestSoundnessUnderAttacks(t *testing.T) {
	timing := smallTiming()
	const (
		rows = 1 << 12
		trh  = 2000
	)
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}
	acts := timing.MaxACTs(timing.TREFW) * 2
	attacks := []func() trace.Generator{
		func() trace.Generator { return workload.S3(0, 600, acts) },
		func() trace.Generator { return workload.DoubleSided(0, 600, acts) },
		func() trace.Generator { return workload.ManySided(0, 600, 8, acts) },
		func() trace.Generator { return workload.S1(0, rows, 20, acts) },
	}
	for i, mk := range attacks {
		res, err := memctrl.Run(memctrl.Config{
			Geometry: geo, Timing: timing,
			Factory: Factory(Config{TRH: trh, Rows: rows, Timing: timing}),
			TRH:     trh,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flips) != 0 {
			t.Errorf("attack %d: per-row tracker allowed %d flips", i, len(res.Flips))
		}
	}
}

func TestFewerFalsePositivesThanGraphene(t *testing.T) {
	// The ideal tracker triggers only on true per-row counts; a rotation
	// over many rows never reaches TRH/4 per row, so it issues zero
	// refreshes where Misra-Gries estimation (which carries counts over on
	// replacement) issues some.
	timing := smallTiming()
	const (
		rows = 1 << 12
		trh  = 2000
	)
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}
	acts := timing.MaxACTs(timing.TREFW)
	res, err := memctrl.Run(memctrl.Config{
		Geometry: geo, Timing: timing,
		Factory: Factory(Config{TRH: trh, Rows: rows, Timing: timing}),
		TRH:     trh,
	}, workload.RotateRows("rot", 0, 64, 3, 200, acts))
	if err != nil {
		t.Fatal(err)
	}
	// 200 rows share the window's ACTs: ~106 each per window, far below
	// TRH/4 = 500.
	if res.NRRCommands != 0 {
		t.Errorf("ideal tracker issued %d refreshes on a sub-threshold rotation", res.NRRCommands)
	}
}

func TestCostIsNotScalable(t *testing.T) {
	p, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Cost()
	if c.Entries != 64*1024 {
		t.Errorf("entries = %d, want one per row", c.Entries)
	}
	// 64K × 14 bits ≈ 918 Kbit per bank — §II-C's "not a scalable
	// solution", ~360× Graphene's 2,511 bits.
	if c.SRAMBits < 64*1024*13 {
		t.Errorf("SRAM bits = %d, suspiciously small", c.SRAMBits)
	}
	if ratio := float64(c.SRAMBits) / 2511; ratio < 100 {
		t.Errorf("per-row/Graphene = %.0f×, want  ≫ 100×", ratio)
	}
}
