package prohit

import (
	"testing"

	"graphene/internal/dram"
)

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{HotEntries: -1}); err == nil {
		t.Error("accepted negative hot entries")
	}
	if _, err := New(Config{InsertP: 2}); err == nil {
		t.Error("accepted insert probability > 1")
	}
	if _, err := New(Config{TickRefreshP: -0.5}); err == nil {
		t.Error("accepted negative tick probability")
	}
}

func TestDefaultsMatchFig7a(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.cfg.HotEntries + p.cfg.ColdEntries; got != 7 {
		t.Errorf("total entries = %d, want 7 (Fig. 7(a))", got)
	}
	if p.Name() != "prohit-7" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestVictimsPromoteColdToHot(t *testing.T) {
	p, err := New(Config{InsertP: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First sighting: cold. Second: promoted to hot.
	p.AppendOnActivate(nil, 100, 0)
	if len(p.hot) != 0 || len(p.cold) != 2 {
		t.Fatalf("after 1 ACT: hot %v cold %v, want victims in cold", p.hot, p.cold)
	}
	p.AppendOnActivate(nil, 100, 0)
	if len(p.hot) != 2 {
		t.Fatalf("after 2 ACTs: hot %v, want both victims promoted", p.hot)
	}
}

func TestHotTableOrdersByFrequency(t *testing.T) {
	p, err := New(Config{InsertP: 1, HotEntries: 3, ColdEntries: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer row 100 often, row 200 rarely: 100's victims bubble to top.
	for i := 0; i < 50; i++ {
		p.AppendOnActivate(nil, 100, 0)
		if i%10 == 0 {
			p.AppendOnActivate(nil, 200, 0)
		}
	}
	hot := p.HotTable()
	if len(hot) == 0 {
		t.Fatal("hot table empty")
	}
	if top := hot[0]; top != 99 && top != 101 {
		t.Errorf("hot top = %d, want a victim of the hot aggressor 100", top)
	}
}

func TestTickRefreshesTopHotEntry(t *testing.T) {
	p, err := New(Config{InsertP: 1, TickRefreshP: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.AppendOnActivate(nil, 100, 0)
	p.AppendOnActivate(nil, 100, 0) // victims now hot
	before := append([]int(nil), p.hot...)
	vrs := p.AppendTick(nil, 0)
	if len(vrs) != 1 || len(vrs[0].Rows) != 1 || vrs[0].Rows[0] != before[0] {
		t.Fatalf("Tick produced %v, want refresh of hot top %d", vrs, before[0])
	}
	// The served entry stays: order changes only through hit move-ups.
	if len(p.hot) != len(before) || p.hot[0] != before[0] {
		t.Errorf("Tick reordered the hot table: %v -> %v", before, p.hot)
	}
	if p.VictimRefreshes() != 1 {
		t.Errorf("VictimRefreshes = %d, want 1", p.VictimRefreshes())
	}
}

func TestTickAlternatesBetweenHotEntries(t *testing.T) {
	// A plain single-row hammer's two victims hit equally often, so their
	// move-ups alternate the top slot and both receive a fair share of the
	// refresh budget.
	p, err := New(Config{InsertP: 0.25, TickRefreshP: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 20_000; i++ {
		p.AppendOnActivate(nil, 100, 0)
		for _, vr := range p.AppendTick(nil, 0) {
			counts[vr.Rows[0]]++
		}
	}
	if len(counts) != 2 {
		t.Fatalf("refreshed %v, want both victims", counts)
	}
	lo, hi := counts[99], counts[101]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || float64(hi)/float64(lo) > 1.5 {
		t.Errorf("refresh imbalance: %v", counts)
	}
}

func TestTickOnEmptyHotTable(t *testing.T) {
	p, err := New(Config{TickRefreshP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vrs := p.AppendTick(nil, 0); vrs != nil {
		t.Errorf("Tick on empty hot table returned %v", vrs)
	}
}

func TestTickBudgetMatchesProbability(t *testing.T) {
	p, err := New(Config{InsertP: 1, TickRefreshP: 0.25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 100_000
	var refreshes int64
	for i := 0; i < ticks; i++ {
		p.AppendOnActivate(nil, 100, 0) // keep the hot table populated
		p.AppendOnActivate(nil, 100, 0)
		refreshes += int64(len(p.AppendTick(nil, dram.Time(i))))
	}
	rate := float64(refreshes) / ticks
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("tick refresh rate = %g, want ≈ 0.25", rate)
	}
}

func TestStarvationOfInfrequentVictims(t *testing.T) {
	// The Fig. 7(a) vulnerability in microcosm: with the pattern's skewed
	// frequencies, the outermost victims (x±5) almost never reach the top
	// of the hot table, so they receive almost no refreshes.
	p, err := New(Config{InsertP: 1, TickRefreshP: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{95, 97, 97, 100, 100, 100, 103, 103, 105} // ~Fig. 7(a) shape
	outer := map[int]bool{94: true, 106: true}
	outerRefreshes, totalRefreshes := 0, 0
	for i := 0; i < 30_000; i++ {
		p.AppendOnActivate(nil, seq[i%len(seq)], 0)
		if i%20 == 0 {
			for _, vr := range p.AppendTick(nil, 0) {
				totalRefreshes++
				if outer[vr.Rows[0]] {
					outerRefreshes++
				}
			}
		}
	}
	if totalRefreshes == 0 {
		t.Fatal("no refreshes at all")
	}
	share := float64(outerRefreshes) / float64(totalRefreshes)
	if share > 0.08 {
		t.Errorf("outer victims got %.1f%% of refreshes; expected starvation (§V-A)", 100*share)
	}
}

func TestCostIsSmallCAM(t *testing.T) {
	p, err := New(Config{Rows: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Cost()
	if c.Entries != 7 || c.CAMBits != 7*16 {
		t.Errorf("cost = %+v, want 7×16-bit CAM", c)
	}
}
