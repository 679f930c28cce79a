package graphene

import (
	"math/rand"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/hammer"
	"graphene/internal/mitigation"
)

// smallTiming compresses the clock so whole reset windows fit in fast
// tests: W per window stays modest while all ratios (tRFC/tREFI etc.)
// remain DDR4-like.
func smallTiming() dram.Timing {
	return dram.Timing{
		TREFI: 7800 * dram.Nanosecond,
		TRFC:  350 * dram.Nanosecond,
		TRC:   45 * dram.Nanosecond,
		TRCD:  13300,
		TRP:   13300,
		TCL:   13300,
		TREFW: 2 * dram.Millisecond, // W ≈ 42K ACTs per window
	}
}

func TestBankTriggersEveryTActs(t *testing.T) {
	b, err := New(Config{TRH: 50000, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	T := b.Params().T
	var now dram.Time
	var refreshes int
	for i := int64(1); i <= 3*T; i++ {
		now += 45 * dram.Nanosecond
		vrs := b.AppendOnActivate(nil, 42, now)
		switch {
		case i%T == 0 && len(vrs) != 1:
			t.Fatalf("ACT %d: expected a trigger at multiple of T=%d, got %v", i, T, vrs)
		case i%T != 0 && len(vrs) != 0:
			t.Fatalf("ACT %d: unexpected trigger %v", i, vrs)
		}
		if i%T == 0 {
			refreshes++
			vr := vrs[0]
			if vr.Aggressor != 42 || vr.Distance != 1 || vr.Explicit() {
				t.Fatalf("trigger %+v, want aggressor 42 distance 1", vr)
			}
		}
	}
	if b.VictimRefreshes() != int64(refreshes) {
		t.Errorf("VictimRefreshes = %d, want %d", b.VictimRefreshes(), refreshes)
	}
}

func TestBankWindowReset(t *testing.T) {
	b, err := New(Config{TRH: 50000, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	T := b.Params().T
	// Accumulate T-1 ACTs just before the window boundary…
	for i := int64(0); i < T-1; i++ {
		if vrs := b.AppendOnActivate(nil, 7, 0); len(vrs) != 0 {
			t.Fatalf("unexpected trigger at ACT %d", i)
		}
	}
	// …then cross the boundary: the table resets and the count restarts.
	after := b.Params().Window + 1
	if vrs := b.AppendOnActivate(nil, 7, after); len(vrs) != 0 {
		t.Fatalf("trigger fired across a reset window: %v", vrs)
	}
	if b.Resets() != 1 {
		t.Errorf("Resets = %d, want 1", b.Resets())
	}
	if c, ok := b.Table().EstimatedCount(7); !ok || c != 1 {
		t.Errorf("count after reset = %d,%v, want 1", c, ok)
	}
}

func TestBankNonAdjacentDistance(t *testing.T) {
	b, err := New(Config{TRH: 50000, K: 1, Distance: 3, Mu: InverseSquareMu})
	if err != nil {
		t.Fatal(err)
	}
	T := b.Params().T
	for i := int64(0); i < T-1; i++ {
		b.AppendOnActivate(nil, 100, 0)
	}
	vrs := b.AppendOnActivate(nil, 100, 0)
	if len(vrs) != 1 || vrs[0].Distance != 3 {
		t.Fatalf("±3 config produced %v, want distance-3 refresh", vrs)
	}
	if got := vrs[0].RowCount(1 << 16); got != 6 {
		t.Errorf("±3 NRR refreshes %d rows, want 6", got)
	}
}

func TestBankCostMatchesParams(t *testing.T) {
	b, err := New(Config{TRH: 50000, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cost := b.Cost()
	if cost.CAMBits != 2511 || cost.SRAMBits != 0 || cost.Entries != 81 {
		t.Errorf("cost = %+v, want 2511 CAM bits / 81 entries (Table IV)", cost)
	}
}

// driveWithOracle replays a row stream through a Graphene bank and the
// ground-truth oracle, modeling the normal refresh routine: every row is
// refreshed once per tREFW at a fixed per-row phase (the rolling refresh of
// §II-A). It returns the number of bit flips.
func driveWithOracle(t *testing.T, cfg Config, rows int, stream func(i int64) int, acts int64) int {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := hammer.NewOracle(rows, cfg.TRH, max(cfg.Distance, 1), cfg.Mu)
	if err != nil {
		t.Fatal(err)
	}
	timing := cfg.Timing
	refPeriod := timing.TREFW / dram.Time(rows) // one row refreshed per period
	var nextRef dram.Time
	refPtr := 0

	actPeriod := timing.TRC
	flips := 0
	for i := int64(0); i < acts; i++ {
		now := dram.Time(i) * actPeriod
		for nextRef <= now {
			o.RefreshRow(refPtr)
			refPtr = (refPtr + 1) % rows
			nextRef += refPeriod
		}
		row := stream(i)
		flips += len(o.AppendActivate(nil, row, now))
		for _, vr := range b.AppendOnActivate(nil, row, now) {
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
	return flips
}

func TestNoFalseNegativesSingleSided(t *testing.T) {
	cfg := Config{TRH: 2000, K: 2, Timing: smallTiming(), Rows: 1 << 12}
	flips := driveWithOracle(t, cfg, 1<<12, func(i int64) int { return 500 }, 200_000)
	if flips != 0 {
		t.Errorf("single-sided hammer flipped %d bits under Graphene", flips)
	}
}

func TestNoFalseNegativesDoubleSided(t *testing.T) {
	cfg := Config{TRH: 2000, K: 2, Timing: smallTiming(), Rows: 1 << 12}
	flips := driveWithOracle(t, cfg, 1<<12, func(i int64) int {
		if i%2 == 0 {
			return 499
		}
		return 501
	}, 200_000)
	if flips != 0 {
		t.Errorf("double-sided hammer flipped %d bits under Graphene", flips)
	}
}

func TestNoFalseNegativesRotation(t *testing.T) {
	cfg := Config{TRH: 2000, K: 2, Timing: smallTiming(), Rows: 1 << 12}
	p, err := cfg.Derive()
	if err != nil {
		t.Fatal(err)
	}
	n := p.NEntry + 1 // rotate one more row than the table holds
	flips := driveWithOracle(t, cfg, 1<<12, func(i int64) int {
		return 100 + int(i%int64(n))*3
	}, 400_000)
	if flips != 0 {
		t.Errorf("rotation attack flipped %d bits under Graphene", flips)
	}
}

func TestNoFalseNegativesRandomAggressors(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := Config{TRH: 2000, K: 2, Timing: smallTiming(), Rows: 1 << 12}
	// Random hot set: a handful of aggressors with random interleaving.
	hot := make([]int, 6)
	for i := range hot {
		hot[i] = rng.Intn(1 << 12)
	}
	flips := driveWithOracle(t, cfg, 1<<12, func(i int64) int {
		if rng.Float64() < 0.7 {
			return hot[rng.Intn(len(hot))]
		}
		return rng.Intn(1 << 12)
	}, 400_000)
	if flips != 0 {
		t.Errorf("random aggressor mix flipped %d bits under Graphene", flips)
	}
}

func TestNoFalseNegativesNonAdjacent(t *testing.T) {
	cfg := Config{TRH: 2000, K: 2, Distance: 2, Timing: smallTiming(), Rows: 1 << 12}
	// Hammer rows at ±2 of a victim: only the non-adjacent extension
	// protects it.
	flips := driveWithOracle(t, cfg, 1<<12, func(i int64) int {
		if i%2 == 0 {
			return 498
		}
		return 502
	}, 400_000)
	if flips != 0 {
		t.Errorf("±2 hammer flipped %d bits under ±2 Graphene", flips)
	}
}

func TestMitigatorInterfaceCompliance(t *testing.T) {
	var _ mitigation.Mitigator = (*Bank)(nil)
	b, err := New(Config{TRH: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "graphene-k1" {
		t.Errorf("Name = %q", b.Name())
	}
	if got := b.AppendTick(nil, 0); got != nil {
		t.Errorf("Tick returned %v, want nil", got)
	}
}

func TestFactoryBuildsIndependentBanks(t *testing.T) {
	f := Factory(Config{TRH: 50000, K: 2})
	m1, err := f()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f()
	if err != nil {
		t.Fatal(err)
	}
	m1.AppendOnActivate(nil, 5, 0)
	b2 := m2.(*Bank)
	if _, ok := b2.Table().EstimatedCount(5); ok {
		t.Error("factory-built banks share state")
	}
}

func TestSpilloverAlertSilentWhenCorrectlySized(t *testing.T) {
	// A correctly sized table never raises the Fig. 4 alert: the spillover
	// count is bounded by W/(Nentry+1) < T within each window.
	b, err := New(Config{TRH: 2000, K: 2, Timing: smallTiming(), Rows: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// Worst case for the spillover: all-distinct rows at the maximum
	// *sustainable* rate — the device loses a tRFC slice of every tREFI to
	// auto-refresh (that blanking is what caps W; feeding faster than the
	// device allows is exactly the overload the alert exists to flag).
	timing := smallTiming()
	period := dram.Time(float64(timing.TRC) * float64(timing.TREFI) / float64(timing.TREFI-timing.TRFC))
	acts := 2 * b.Params().W
	for i := int64(0); i < acts; i++ {
		now := dram.Time(i) * period
		b.AppendOnActivate(nil, int(i%(1<<12)), now)
	}
	if b.Alerts() != 0 {
		t.Errorf("alert fired %d times on a correctly sized table", b.Alerts())
	}
}

func TestSpilloverAlertFiresWhenUndersized(t *testing.T) {
	// Lie to the derivation: claim a device 8× slower than the stream we
	// then feed it (more ACTs per window than the table was sized for).
	slow := smallTiming()
	slow.TRC *= 8
	b, err := New(Config{TRH: 2000, K: 2, Timing: slow, Rows: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	fast := smallTiming()
	acts := 10 * b.Params().W // stream runs 8× faster than derived-for
	for i := int64(0); i < acts; i++ {
		now := dram.Time(i) * fast.TRC
		b.AppendOnActivate(nil, int(i%(1<<12)), now)
	}
	if b.Alerts() == 0 {
		t.Error("undersized table never raised the spillover alert")
	}
}

func TestWindowHistoryRecordsCompletedWindows(t *testing.T) {
	timing := smallTiming()
	b, err := New(Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer through 3 full windows.
	acts := 3 * b.Params().W
	for i := int64(0); i < acts; i++ {
		now := dram.Time(i) * 48 * dram.Nanosecond
		b.AppendOnActivate(nil, 600, now)
	}
	hist := b.WindowHistory()
	if len(hist) < 2 {
		t.Fatalf("history has %d windows, want >= 2", len(hist))
	}
	for i, ws := range hist {
		if ws.ACTs == 0 {
			t.Errorf("window %d recorded no ACTs", i)
		}
		if ws.Triggers == 0 {
			t.Errorf("window %d recorded no triggers despite constant hammer", i)
		}
		if ws.Alert {
			t.Errorf("window %d alerted on a sustainable stream", i)
		}
		if i > 0 && ws.Index <= hist[i-1].Index {
			t.Errorf("window indexes not increasing: %d then %d", hist[i-1].Index, ws.Index)
		}
	}
}

func TestWindowHistoryCapped(t *testing.T) {
	timing := smallTiming()
	b, err := New(Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing})
	if err != nil {
		t.Fatal(err)
	}
	// Cross many window boundaries cheaply: one ACT per window.
	for w := int64(0); w < 40; w++ {
		b.AppendOnActivate(nil, 5, dram.Time(w)*b.Params().Window+1)
	}
	if got := len(b.WindowHistory()); got > 16 {
		t.Errorf("history grew to %d, cap is 16", got)
	}
}
