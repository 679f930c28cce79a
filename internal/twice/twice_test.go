package twice

import (
	"testing"

	"graphene/internal/dram"
	"graphene/internal/hammer"
)

func smallTiming() dram.Timing {
	return dram.Timing{
		TREFI: 7800 * dram.Nanosecond,
		TRFC:  350 * dram.Nanosecond,
		TRC:   45 * dram.Nanosecond,
		TRCD:  13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
}

func TestDeriveParameters(t *testing.T) {
	p, err := Config{TRH: 50000}.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if p.ThRH != 12500 {
		t.Errorf("th_RH = %d, want 12500 (TRH/4)", p.ThRH)
	}
	if p.Intervals != 8205 {
		t.Errorf("intervals = %d, want 8205 (tREFW/tREFI)", p.Intervals)
	}
	// th_PI = th_RH / intervals ≈ 1.52.
	if p.ThPI < 1.5 || p.ThPI > 1.6 {
		t.Errorf("th_PI = %g, want ≈ 1.52", p.ThPI)
	}
	// Table IV ballpark: ~1.2K entries per bank at TRH = 50K, an order of
	// magnitude above Graphene's 81.
	if p.MaxEntries < 800 || p.MaxEntries > 2000 {
		t.Errorf("MaxEntries = %d, want ≈ 1.2K (Table IV ballpark)", p.MaxEntries)
	}
}

func TestDeriveRejectsBadConfig(t *testing.T) {
	if _, err := (Config{}).Derive(); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := (Config{TRH: 2}).Derive(); err == nil {
		t.Error("accepted TRH too small for th_RH >= 1")
	}
}

func TestTriggerAtThRH(t *testing.T) {
	tw, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	th := tw.Params().ThRH
	for i := int64(1); i < th; i++ {
		if vrs := tw.AppendOnActivate(nil, 5, 0); len(vrs) != 0 {
			t.Fatalf("premature refresh at ACT %d", i)
		}
	}
	vrs := tw.AppendOnActivate(nil, 5, 0)
	if len(vrs) != 1 || vrs[0].Aggressor != 5 || vrs[0].Distance != 1 {
		t.Fatalf("at th_RH: %v, want ±1 refresh of row 5", vrs)
	}
	if tw.VictimRefreshes() != 1 {
		t.Errorf("VictimRefreshes = %d, want 1", tw.VictimRefreshes())
	}
}

func TestPruningDropsColdEntries(t *testing.T) {
	tw, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	// One ACT each on many rows, then several pruning ticks: every entry
	// falls behind the th_PI slope and is dropped.
	for r := 0; r < 100; r++ {
		tw.AppendOnActivate(nil, r, 0)
	}
	if tw.Live() != 100 {
		t.Fatalf("Live = %d, want 100", tw.Live())
	}
	tw.AppendTick(nil, 0)
	if tw.Live() != 0 {
		t.Errorf("after one pruning interval, Live = %d, want 0 (count 1 < th_PI)", tw.Live())
	}
	if tw.Prunes() != 100 {
		t.Errorf("Prunes = %d, want 100", tw.Prunes())
	}
}

func TestHotEntriesSurvivePruning(t *testing.T) {
	tw, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	// A row activated faster than th_PI per interval must stay tracked.
	for tick := 0; tick < 50; tick++ {
		for i := 0; i < 10; i++ { // 10 ACTs per interval >> th_PI ≈ 1.5
			tw.AppendOnActivate(nil, 7, 0)
		}
		tw.AppendTick(nil, 0)
		if tw.Live() != 1 {
			t.Fatalf("tick %d: hot row pruned (live=%d)", tick, tw.Live())
		}
	}
}

func TestOverflowStillProtects(t *testing.T) {
	tw, err := New(Config{TRH: 50000, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		tw.AppendOnActivate(nil, r, 0)
	}
	vrs := tw.AppendOnActivate(nil, 99, 0) // table full: conservative refresh
	if len(vrs) != 1 || vrs[0].Aggressor != 99 {
		t.Fatalf("overflow produced %v, want refresh of row 99's victims", vrs)
	}
	if tw.Overflows() != 1 {
		t.Errorf("Overflows = %d, want 1", tw.Overflows())
	}
}

func TestCostStructure(t *testing.T) {
	tw, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	c := tw.Cost()
	p := tw.Params()
	if c.Entries != p.MaxEntries {
		t.Errorf("entries = %d, want %d", c.Entries, p.MaxEntries)
	}
	if c.CAMBits != p.MaxEntries*p.AddrBits {
		t.Errorf("CAM bits = %d, want %d", c.CAMBits, p.MaxEntries*p.AddrBits)
	}
	if c.SRAMBits != p.MaxEntries*(p.CountBits+p.LifeBits) {
		t.Errorf("SRAM bits = %d, want %d", c.SRAMBits, p.MaxEntries*(p.CountBits+p.LifeBits))
	}
	if c.CAMBits == 0 || c.SRAMBits == 0 {
		t.Error("TWiCe must use both CAM and SRAM (Table IV)")
	}
}

// TestNoFalseNegatives hammers through full refresh windows with the
// ground-truth oracle: TWiCe must never let a victim reach TRH.
func TestNoFalseNegatives(t *testing.T) {
	const (
		rows = 1 << 12
		trh  = 2000
	)
	timing := smallTiming()
	o, err := hammer.NewOracle(rows, trh, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	refPeriod := timing.TREFW / dram.Time(rows)
	var nextRef, nextTick dram.Time
	nextTick = timing.TREFI
	refPtr := 0

	streams := []func(i int64) int{
		func(i int64) int { return 600 },                                 // single-sided
		func(i int64) int { return 599 + 2*int(i%2) },                    // double-sided
		func(i int64) int { return 100 + int(i%1500)*2 },                 // wide rotation
		func(i int64) int { return 100 + int(i%7)*3 + int(i%11)*(1<<6) }, // mixed
	}
	for si, stream := range streams {
		tw, err := New(Config{TRH: trh, Timing: timing, Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		o.Reset()
		nextRef, nextTick, refPtr = 0, timing.TREFI, 0
		for i := int64(0); i < 300_000; i++ {
			now := dram.Time(i) * timing.TRC
			for nextRef <= now {
				o.RefreshRow(refPtr)
				refPtr = (refPtr + 1) % rows
				nextRef += refPeriod
			}
			for nextTick <= now {
				tw.AppendTick(nil, nextTick)
				nextTick += timing.TREFI
			}
			row := stream(i)
			o.AppendActivate(nil, row, now)
			for _, vr := range tw.AppendOnActivate(nil, row, now) {
				for d := 1; d <= vr.Distance; d++ {
					if r := vr.Aggressor - d; r >= 0 {
						o.RefreshRow(r)
					}
					if r := vr.Aggressor + d; r < rows {
						o.RefreshRow(r)
					}
				}
			}
		}
		if n := len(o.Flips()); n != 0 {
			t.Errorf("stream %d: TWiCe allowed %d bit flips", si, n)
		}
	}
}
