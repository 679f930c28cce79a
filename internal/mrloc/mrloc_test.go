package mrloc

import (
	"math"
	"testing"
)

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{BaseP: -1}); err == nil {
		t.Error("accepted negative base probability")
	}
	if _, err := New(Config{BaseP: 2}); err == nil {
		t.Error("accepted base probability > 1")
	}
	if _, err := New(Config{BaseP: 0.1, MaxBoost: 0.5}); err == nil {
		t.Error("accepted boost < 1")
	}
	if _, err := New(Config{BaseP: 0.1, Entries: -1}); err == nil {
		t.Error("accepted negative entries")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	m, err := New(Config{BaseP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Entries != 15 {
		t.Errorf("entries = %d, want 15 (§V-A)", m.cfg.Entries)
	}
	if m.Name() != "mrloc-15" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestQueueTracksVictims(t *testing.T) {
	m, err := New(Config{BaseP: 0, Entries: 15})
	if err != nil {
		t.Fatal(err)
	}
	m.AppendOnActivate(nil, 100, 0) // victims 99, 101
	if m.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2", m.QueueLen())
	}
	m.AppendOnActivate(nil, 100, 0) // re-enqueue, no growth
	if m.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2 after repeat", m.QueueLen())
	}
	m.AppendOnActivate(nil, 200, 0)
	if m.QueueLen() != 4 {
		t.Errorf("queue len = %d, want 4", m.QueueLen())
	}
}

func TestQueueEvictsOldest(t *testing.T) {
	m, err := New(Config{BaseP: 0, Entries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []int{10, 20, 30} { // 6 victims through a 4-queue
		m.AppendOnActivate(nil, row, 0)
	}
	if m.QueueLen() != 4 {
		t.Errorf("queue len = %d, want cap 4", m.QueueLen())
	}
	if _, ok := m.pos[9]; ok {
		t.Error("oldest victim 9 still queued")
	}
	if _, ok := m.pos[31]; !ok {
		t.Error("newest victim 31 missing")
	}
}

func TestBoostRaisesTrackedVictimProbability(t *testing.T) {
	// A victim resident in the queue must be refreshed far more often than
	// the base probability; an absent victim at exactly the base rate.
	const base = 0.01
	m, err := New(Config{BaseP: base, MaxBoost: 10, Entries: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const acts = 200_000
	var refreshes int
	for i := 0; i < acts; i++ {
		refreshes += len(m.AppendOnActivate(nil, 100, 0)) // victims always queued after 1st
	}
	rate := float64(refreshes) / float64(2*acts) // 2 victims per ACT
	if rate < 5*base {
		t.Errorf("tracked victim refresh rate = %g, want >> base %g (\"higher probability than p\", §V-A)", rate, base)
	}
}

func TestFig7bPatternCollapsesToPara(t *testing.T) {
	// Fig. 7(b): eight non-adjacent aggressors create 16 distinct victims,
	// one more than the 15-entry queue holds, so every victim is evicted
	// before recurring and MRLoc refreshes at exactly the base rate.
	const base = 0.01
	m, err := New(Config{BaseP: base, MaxBoost: 10, Entries: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const acts = 400_000
	var refreshes int
	for i := 0; i < acts; i++ {
		row := 100 + (i%8)*5
		refreshes += len(m.AppendOnActivate(nil, row, 0))
	}
	rate := float64(refreshes) / float64(2*acts)
	if math.Abs(rate-base) > base*0.15 {
		t.Errorf("Fig. 7(b) pattern rate = %g, want ≈ base %g (MRLoc ≡ PARA, §V-A)", rate, base)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() int64 {
		m, err := New(Config{BaseP: 0.05, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10_000; i++ {
			m.AppendOnActivate(nil, 50+(i%10)*4, 0)
		}
		return m.VictimRefreshes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced %d vs %d refreshes", a, b)
	}
}

func TestCostIsSmallCAM(t *testing.T) {
	m, err := New(Config{BaseP: 0.001, Entries: 15, Rows: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cost()
	if c.Entries != 15 || c.CAMBits != 15*16 || c.SRAMBits != 0 {
		t.Errorf("cost = %+v, want 15×16-bit CAM", c)
	}
}

func TestEdgeVictimsSkipped(t *testing.T) {
	m, err := New(Config{BaseP: 1, Rows: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range m.AppendOnActivate(nil, 0, 0) {
		if vr.Rows[0] < 0 || vr.Rows[0] >= 8 {
			t.Errorf("victim %d out of bank", vr.Rows[0])
		}
	}
}
