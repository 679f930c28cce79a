package para

import (
	"math"
	"testing"

	"graphene/internal/mitigation"
)

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty probabilities")
	}
	if _, err := New(Classic(-0.1, 64, 0)); err == nil {
		t.Error("accepted negative probability")
	}
	if _, err := New(Classic(1.1, 64, 0)); err == nil {
		t.Error("accepted probability > 1")
	}
}

func TestRefreshRateMatchesProbability(t *testing.T) {
	const p = 0.01
	const acts = 500_000
	eng, err := New(Classic(p, 64*1024, 42))
	if err != nil {
		t.Fatal(err)
	}
	var refreshes int64
	for i := 0; i < acts; i++ {
		refreshes += int64(len(eng.AppendOnActivate(nil, 1000, 0)))
	}
	got := float64(refreshes) / acts
	if math.Abs(got-p) > p*0.1 {
		t.Errorf("refresh rate = %g, want ≈ %g", got, p)
	}
	if eng.VictimRefreshes() != refreshes {
		t.Errorf("VictimRefreshes = %d, want %d", eng.VictimRefreshes(), refreshes)
	}
}

func TestVictimsAreAdjacent(t *testing.T) {
	eng, err := New(Classic(0.5, 1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	sides := map[int]int{}
	for i := 0; i < 10_000; i++ {
		for _, vr := range eng.AppendOnActivate(nil, 100, 0) {
			if !vr.Explicit() || len(vr.Rows) != 1 {
				t.Fatalf("unexpected refresh %+v", vr)
			}
			v := vr.Rows[0]
			if v != 99 && v != 101 {
				t.Fatalf("victim %d not adjacent to 100", v)
			}
			sides[v]++
		}
	}
	// Both sides must be chosen with roughly equal frequency.
	lo, hi := float64(sides[99]), float64(sides[101])
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || hi/lo > 1.2 {
		t.Errorf("side imbalance: %v", sides)
	}
}

func TestNonAdjacentProbabilities(t *testing.T) {
	eng, err := New(Config{Probabilities: []float64{0.2, 0.1}, Rows: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byDist := map[int]int{}
	const acts = 200_000
	for i := 0; i < acts; i++ {
		for _, vr := range eng.AppendOnActivate(nil, 500, 0) {
			d := vr.Rows[0] - 500
			if d < 0 {
				d = -d
			}
			byDist[d]++
		}
	}
	r1 := float64(byDist[1]) / acts
	r2 := float64(byDist[2]) / acts
	if math.Abs(r1-0.2) > 0.02 {
		t.Errorf("±1 rate = %g, want ≈ 0.2", r1)
	}
	if math.Abs(r2-0.1) > 0.01 {
		t.Errorf("±2 rate = %g, want ≈ 0.1", r2)
	}
}

func TestEdgeVictimsDropped(t *testing.T) {
	eng, err := New(Classic(1.0, 4, 1)) // always refresh
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for _, vr := range eng.AppendOnActivate(nil, 0, 0) {
			if vr.Rows[0] < 0 || vr.Rows[0] >= 4 {
				t.Fatalf("victim %d out of bank", vr.Rows[0])
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() []int {
		eng, err := New(Classic(0.3, 1024, 99))
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for i := 0; i < 1000; i++ {
			for _, vr := range eng.AppendOnActivate(nil, i%50+100, 0) {
				out = append(out, vr.Rows[0])
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNameKeepsClassicLabel(t *testing.T) {
	eng, err := New(Classic(0.00145, 1024, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Name(); got != "para-0.00145" {
		t.Errorf("classic name = %q, want para-0.00145", got)
	}
}

func TestNameListsEveryDistanceProbability(t *testing.T) {
	// The ±n configurations of §V-D must not report only p_1: two sweeps
	// with equal p_1 but different tails would collapse into one label.
	eng, err := New(Config{Probabilities: []float64{0.0015, 0.0007}, Rows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Name(); got != "para-0.0015+0.0007" {
		t.Errorf("±2 name = %q, want para-0.0015+0.0007", got)
	}
	eng3, err := New(Config{Probabilities: []float64{0.2, 0.1, 0.05}, Rows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng3.Name(); got != "para-0.2+0.1+0.05" {
		t.Errorf("±3 name = %q, want para-0.2+0.1+0.05", got)
	}
}

func TestCostIsZero(t *testing.T) {
	eng, _ := New(Classic(0.001, 64, 0))
	if c := eng.Cost(); c != (mitigation.HardwareCost{}) {
		t.Errorf("PARA cost = %+v, want zero (table-free)", c)
	}
}

func TestFactoryIndependentStreams(t *testing.T) {
	f := Factory(Classic(0.5, 1024, 1))
	m1, err := f()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 200; i++ {
		a := m1.AppendOnActivate(nil, 100, 0)
		b := m2.AppendOnActivate(nil, 100, 0)
		if len(a) != len(b) {
			same = false
			break
		}
		for j := range a {
			if a[j].Rows[0] != b[j].Rows[0] {
				same = false
			}
		}
	}
	if same {
		t.Error("factory-built banks use identical RNG streams")
	}
}
