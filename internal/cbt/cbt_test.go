package cbt

import (
	"testing"

	"graphene/internal/dram"
	"graphene/internal/hammer"
	"graphene/internal/mitigation"
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

func TestNewDefaults(t *testing.T) {
	c, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "cbt-128" {
		t.Errorf("Name = %q, want cbt-128", c.Name())
	}
	if c.LastLevelThreshold() != 12500 {
		t.Errorf("T_last = %d, want 12500 (TRH/4)", c.LastLevelThreshold())
	}
	if c.LiveCounters() != 1 {
		t.Errorf("fresh tree has %d counters, want 1 (root)", c.LiveCounters())
	}
	// Paper: CBT-128 has 10 levels.
	if got := c.cfg.Levels; got != 10 {
		t.Errorf("levels = %d, want 10", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{TRH: 0}); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := New(Config{TRH: 50000, Counters: -1}); err == nil {
		t.Error("accepted negative counters")
	}
	if _, err := New(Config{TRH: 8, Counters: 4, Levels: 12}); err == nil {
		t.Error("accepted TRH smaller than level count")
	}
}

func TestSplitThresholdsIncreaseWithLevel(t *testing.T) {
	c, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < 10; l++ {
		if c.SplitThreshold(l) <= c.SplitThreshold(l-1) {
			t.Errorf("split threshold not increasing at level %d: %d <= %d",
				l, c.SplitThreshold(l), c.SplitThreshold(l-1))
		}
	}
	if c.SplitThreshold(9) != c.LastLevelThreshold() {
		t.Errorf("last-level threshold %d != T_last %d", c.SplitThreshold(9), c.LastLevelThreshold())
	}
}

func TestTreeSplitsUnderLoad(t *testing.T) {
	c, err := New(Config{TRH: 50000, Rows: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one row until the root splits down toward it.
	split0 := c.SplitThreshold(0)
	for i := int64(0); i < split0; i++ {
		c.AppendOnActivate(nil, 1000, 0)
	}
	if c.LiveCounters() < 2 {
		t.Errorf("after %d ACTs, %d counters; want a split", split0, c.LiveCounters())
	}
}

func TestTriggerRefreshesCoveredRegionPlusBoundary(t *testing.T) {
	c, err := New(Config{TRH: 50000, Rows: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	var triggers int64
	for i := int64(0); i < 3*c.LastLevelThreshold(); i++ {
		for _, vr := range c.AppendOnActivate(nil, 1000, 0) {
			if !vr.Explicit() {
				t.Fatalf("CBT refresh must carry an explicit row set, got %+v", vr)
			}
			got = vr.Rows
			triggers++
		}
	}
	if triggers == 0 {
		t.Fatal("no trigger after 3×T_last ACTs")
	}
	// At 64K rows / 10 levels the smallest counter region is 128 rows;
	// with the contiguity assumption the refresh covers region + 2.
	if len(got) != 128+2 {
		t.Errorf("trigger refreshed %d rows, want 130 (N/2^l + 2, §II-C)", len(got))
	}
	if c.Triggers() != triggers {
		t.Errorf("Triggers = %d, want %d", c.Triggers(), triggers)
	}
}

func TestRemappedModeDoublesRefresh(t *testing.T) {
	c, err := New(Config{TRH: 50000, Rows: 1 << 16, AssumeRemapped: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []mitigation.VictimRefresh
	for i := int64(0); i < 2*c.LastLevelThreshold(); i++ {
		if vrs := c.AppendOnActivate(nil, 1000, 0); len(vrs) > 0 {
			got = vrs
		}
	}
	// One aggressor-style refresh per covered row (128 at the deepest
	// level), each refreshing ±1: 2 × N/2^l rows total (§II-C).
	if len(got) != 128 {
		t.Fatalf("remapped trigger issued %d refreshes, want 128 per-row NRRs", len(got))
	}
	rows := 0
	for _, vr := range got {
		if vr.Explicit() {
			t.Fatal("remapped mode must issue aggressor refreshes, not explicit row lists")
		}
		rows += vr.RowCount(1 << 16)
	}
	if rows != 2*128 {
		t.Errorf("remapped trigger refreshed %d rows, want 256 (N/2^l × 2, §II-C)", rows)
	}
}

func TestCounterPoolExhaustion(t *testing.T) {
	c, err := New(Config{TRH: 50000, Counters: 4, Levels: 10, Rows: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// Spread load so every region wants to split; the pool caps at 4.
	for i := 0; i < 200_000; i++ {
		c.AppendOnActivate(nil, (i*977)%(1<<16), 0)
	}
	if c.LiveCounters() > 4 {
		t.Errorf("live counters %d exceed pool 4", c.LiveCounters())
	}
}

func TestWindowResetCollapsesTree(t *testing.T) {
	timing := smallTiming()
	c, err := New(Config{TRH: 50000, Rows: 1 << 16, Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < c.SplitThreshold(0)+10; i++ {
		c.AppendOnActivate(nil, 500, 0)
	}
	if c.LiveCounters() < 2 {
		t.Fatal("tree did not split")
	}
	c.AppendOnActivate(nil, 500, timing.TREFW+1)
	if c.LiveCounters() != 1 {
		t.Errorf("after window reset: %d counters, want 1", c.LiveCounters())
	}
}

func TestCoverIsAlwaysDisjointAndComplete(t *testing.T) {
	c, err := New(Config{TRH: 50000, Counters: 32, Rows: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		c.AppendOnActivate(nil, (i*131)%(1<<12), 0)
		if i%10_000 != 0 {
			continue
		}
		covered := 0
		prevHi := 0
		for _, n := range c.nodes {
			if n.lo != prevHi {
				t.Fatalf("cover gap/overlap at %d (lo %d)", prevHi, n.lo)
			}
			covered += n.hi - n.lo
			prevHi = n.hi
		}
		if covered != 1<<12 {
			t.Fatalf("cover spans %d rows, want %d", covered, 1<<12)
		}
	}
}

func TestCostMatchesTableIVBallpark(t *testing.T) {
	c, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Cost()
	if cost.CAMBits != 0 {
		t.Error("CBT must be SRAM-only (Table IV)")
	}
	// Paper: 3,824 bits; our counter layout (14 count + 16 prefix) × 128
	// gives 3,840 — within half a percent.
	if cost.SRAMBits < 3600 || cost.SRAMBits > 4100 {
		t.Errorf("SRAM bits = %d, want ≈ 3,824 (Table IV)", cost.SRAMBits)
	}
}

// TestNoFalseNegatives verifies CBT's conservative inheritance: with the
// oracle as ground truth, no victim may reach TRH.
func TestNoFalseNegatives(t *testing.T) {
	const (
		rows = 1 << 12
		trh  = 2000
	)
	timing := smallTiming()
	streams := []func(i int64) int{
		func(i int64) int { return 600 },
		func(i int64) int { return 599 + 2*int(i%2) },
		func(i int64) int { return 100 + int(i%37)*97 },
	}
	for si, stream := range streams {
		c, err := New(Config{TRH: trh, Counters: 16, Rows: rows, Timing: timing})
		if err != nil {
			t.Fatal(err)
		}
		o, err := hammer.NewOracle(rows, trh, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		refPeriod := timing.TREFW / dram.Time(rows)
		var nextRef dram.Time
		refPtr := 0
		var flips []hammer.Flip
		for i := int64(0); i < 300_000; i++ {
			now := dram.Time(i) * timing.TRC
			for nextRef <= now {
				o.RefreshRow(refPtr)
				refPtr = (refPtr + 1) % rows
				nextRef += refPeriod
			}
			row := stream(i)
			flips = o.AppendActivate(flips, row, now)
			for _, vr := range c.AppendOnActivate(nil, row, now) {
				for _, r := range vr.Rows {
					o.RefreshRow(r)
				}
			}
		}
		if n := len(flips); n != 0 {
			t.Errorf("stream %d: CBT allowed %d flips", si, n)
		}
	}
}
