package memctrl

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"graphene/internal/cra"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/workload"
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

func oneBank(rows int) dram.Geometry {
	return dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}
}

func TestBaselineRunAccounting(t *testing.T) {
	cfg := Config{Geometry: oneBank(1 << 12), Timing: smallTiming()}
	var accs []trace.Access
	for i := 0; i < 1000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: i % 64})
	}
	res, err := Run(cfg, trace.FromSlice("t", accs))
	if err != nil {
		t.Fatal(err)
	}
	if res.ACTs != 1000 {
		t.Errorf("ACTs = %d, want 1000", res.ACTs)
	}
	if res.Scheme != "none" {
		t.Errorf("Scheme = %q, want none", res.Scheme)
	}
	if res.RowsVictim != 0 || res.NRRCommands != 0 {
		t.Error("baseline issued victim refreshes")
	}
	// 1000 back-to-back ACTs take 45 us; no REF interval elapses before
	// the stream ends, so EndTime ≈ 1000·tRC.
	if res.EndTime < 45*dram.Microsecond {
		t.Errorf("EndTime = %v, want >= 45us", res.EndTime)
	}
}

func TestRefreshRoutineCoversElapsedTime(t *testing.T) {
	cfg := Config{Geometry: oneBank(1 << 12), Timing: smallTiming()}
	// Spread the stream over one full window with gaps.
	gap := smallTiming().TREFW / 1000
	var accs []trace.Access
	for i := 0; i < 1000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: i % 16, Gap: gap})
	}
	res, err := Run(cfg, trace.FromSlice("t", accs))
	if err != nil {
		t.Fatal(err)
	}
	wantREFs := int64(res.EndTime / smallTiming().TREFI)
	if res.REFCommands < wantREFs-1 || res.REFCommands > wantREFs+1 {
		t.Errorf("REFCommands = %d, want ≈ %d over %v", res.REFCommands, wantREFs, res.EndTime)
	}
	if res.RowsAuto == 0 {
		t.Error("no rows auto-refreshed")
	}
}

func TestGrapheneUnderDoubleSidedAttack(t *testing.T) {
	timing := smallTiming()
	const trh = 2000
	cfg := Config{
		Geometry: oneBank(1 << 12),
		Timing:   timing,
		Factory:  graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: 1 << 12, Timing: timing}),
		TRH:      trh,
	}
	var accs []trace.Access
	for i := 0; i < 300_000; i++ {
		row := 499 + 2*(i%2)
		accs = append(accs, trace.Access{Bank: 0, Row: row})
	}
	res, err := Run(cfg, trace.FromSlice("attack", accs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 0 {
		t.Errorf("Graphene allowed %d flips under double-sided attack", len(res.Flips))
	}
	if res.NRRCommands == 0 {
		t.Error("attack triggered no victim refreshes")
	}
	if res.MaxDisturbance >= trh {
		t.Errorf("max disturbance %g reached TRH %d", res.MaxDisturbance, trh)
	}
}

func TestUnprotectedAttackFlipsBits(t *testing.T) {
	timing := smallTiming()
	const trh = 2000
	cfg := Config{Geometry: oneBank(1 << 12), Timing: timing, TRH: trh}
	var accs []trace.Access
	for i := 0; i < 100_000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: 500})
	}
	res, err := Run(cfg, trace.FromSlice("bare", accs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) == 0 {
		t.Error("unprotected single-row hammer did not flip (oracle broken?)")
	}
	for _, f := range res.Flips {
		if f.Victim != 499 && f.Victim != 501 {
			t.Errorf("flip in row %d, want 499/501", f.Victim)
		}
	}
}

func TestSlowdownFromVictimRefreshes(t *testing.T) {
	timing := smallTiming()
	geo := oneBank(1 << 12)
	var accs []trace.Access
	for i := 0; i < 200_000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: 500})
	}
	base, err := Run(Config{Geometry: geo, Timing: timing}, trace.FromSlice("b", accs))
	if err != nil {
		t.Fatal(err)
	}
	prot, err := Run(Config{
		Geometry: geo, Timing: timing,
		Factory: graphene.Factory(graphene.Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing}),
	}, trace.FromSlice("b", accs))
	if err != nil {
		t.Fatal(err)
	}
	if prot.EndTime <= base.EndTime {
		t.Error("victim refreshes did not extend completion time")
	}
	s := prot.SlowdownVs(base)
	if s <= 0 || s > 0.2 {
		t.Errorf("slowdown = %g, want small positive", s)
	}
}

func TestMultiBankIndependence(t *testing.T) {
	timing := smallTiming()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 4, RowsPerBank: 1 << 12}
	var accs []trace.Access
	for i := 0; i < 4000; i++ {
		accs = append(accs, trace.Access{Bank: i % 4, Row: i % 100})
	}
	res, err := Run(Config{Geometry: geo, Timing: timing}, trace.FromSlice("mb", accs))
	if err != nil {
		t.Fatal(err)
	}
	if res.ACTs != 4000 {
		t.Errorf("ACTs = %d", res.ACTs)
	}
	// Four banks each run 1000 ACTs in parallel timelines: completion is
	// far below the serialized 4000·tRC.
	if res.EndTime >= dram.Time(4000)*timing.TRC {
		t.Errorf("EndTime = %v, want < serialized %v", res.EndTime, dram.Time(4000)*timing.TRC)
	}
}

func TestRunRejectsOutOfRangeAccesses(t *testing.T) {
	cfg := Config{Geometry: oneBank(64), Timing: smallTiming()}
	if _, err := Run(cfg, trace.FromSlice("bad", []trace.Access{{Bank: 5, Row: 0}})); err == nil {
		t.Error("accepted out-of-range bank")
	}
	if _, err := Run(cfg, trace.FromSlice("bad", []trace.Access{{Bank: 0, Row: 64}})); err == nil {
		t.Error("accepted out-of-range row")
	}
}

// TestRunRejectsOversizedBank: a bank with more rows than the int32 row
// columns address fails Run and RunBlocks up front, before run() builds
// any bank: the factory, which it calls right after building each bank,
// must never be reached.
func TestRunRejectsOversizedBank(t *testing.T) {
	cfg := Config{
		Geometry: oneBank(trace.MaxRow + 2), Timing: smallTiming(),
		Factory: func() (mitigation.Mitigator, error) {
			t.Error("bank built for an oversized geometry")
			return nil, errors.New("unreachable")
		},
	}
	accs := []trace.Access{{Bank: 0, Row: 1}}
	_, err := Run(cfg, trace.FromSlice("big", accs))
	if err == nil || !strings.Contains(err.Error(), "rows per bank") {
		t.Errorf("Run: err = %v, want the rows-per-bank limit", err)
	}
	_, err = RunBlocks(cfg, blockSourceFor(t, trace.FromSlice("big", accs)))
	if err == nil || !strings.Contains(err.Error(), "rows per bank") {
		t.Errorf("RunBlocks: err = %v, want the rows-per-bank limit", err)
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	cfg := Config{
		Geometry: oneBank(64), Timing: smallTiming(),
		Factory: graphene.Factory(graphene.Config{TRH: -1}),
	}
	if _, err := Run(cfg, trace.FromSlice("x", nil)); err == nil {
		t.Error("factory error not propagated")
	}
}

func TestCostReported(t *testing.T) {
	timing := smallTiming()
	cfg := Config{
		Geometry: oneBank(1 << 12), Timing: timing,
		Factory: graphene.Factory(graphene.Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing}),
	}
	res, err := Run(cfg, trace.FromSlice("x", []trace.Access{{Bank: 0, Row: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CostPerBank == (mitigation.HardwareCost{}) {
		t.Error("cost not reported")
	}
	if res.Scheme != "graphene-k2" {
		t.Errorf("Scheme = %q", res.Scheme)
	}
}

func TestCRALocalityPenaltyChargedToTimeline(t *testing.T) {
	// §II-C: CRA "performs poorly for an access pattern with little
	// locality" — its counter-cache misses cost DRAM traffic that must
	// lengthen the run. Compare a hot (cache-resident) pattern against a
	// streaming pattern of the same length.
	timing := smallTiming()
	geo := oneBank(1 << 14)
	factory := cra.Factory(cra.Config{TRH: 50000, CacheLines: 64, Rows: 1 << 14})

	mkLocal := func() trace.Generator {
		var i int64
		return trace.FromFunc("local", func() (trace.Access, bool) {
			if i >= 50_000 {
				return trace.Access{}, false
			}
			i++
			return trace.Access{Bank: 0, Row: int(i % 32)}, true
		})
	}
	mkStream := func() trace.Generator {
		var i int64
		return trace.FromFunc("stream", func() (trace.Access, bool) {
			if i >= 50_000 {
				return trace.Access{}, false
			}
			i++
			return trace.Access{Bank: 0, Row: int(i % (1 << 14))}, true
		})
	}

	local, err := Run(Config{Geometry: geo, Timing: timing, Factory: factory}, mkLocal())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Run(Config{Geometry: geo, Timing: timing, Factory: factory}, mkStream())
	if err != nil {
		t.Fatal(err)
	}
	if local.ExtraDRAMAccesses > stream.ExtraDRAMAccesses/100 {
		t.Errorf("extra accesses: local %d vs stream %d — cache not effective",
			local.ExtraDRAMAccesses, stream.ExtraDRAMAccesses)
	}
	if stream.EndTime <= local.EndTime {
		t.Errorf("streaming run (%v) not slower than local run (%v) despite %d extra accesses",
			stream.EndTime, local.EndTime, stream.ExtraDRAMAccesses)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// The per-bank goroutines must not introduce nondeterminism: same
	// trace, same seeds, identical results (the README promises this).
	timing := smallTiming()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 8, RowsPerBank: 1 << 12}
	mk := func() trace.Generator {
		var i int64
		return trace.FromFunc("det", func() (trace.Access, bool) {
			if i >= 200_000 {
				return trace.Access{}, false
			}
			i++
			return trace.Access{Bank: int(i % 8), Row: int((i * 31) % 700)}, true
		})
	}
	run := func() Result {
		res, err := Run(Config{
			Geometry: geo, Timing: timing,
			Factory: graphene.Factory(graphene.Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing}),
			TRH:     2000,
		}, mk())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ACTs != b.ACTs || a.EndTime != b.EndTime || a.RowsVictim != b.RowsVictim ||
		a.NRRCommands != b.NRRCommands || a.RowsAuto != b.RowsAuto || len(a.Flips) != len(b.Flips) {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestEveryRowRefreshedWithinWindow(t *testing.T) {
	// The retention guarantee of §II-A, as enforced by the simulator: over
	// any elapsed tREFW, the auto-refresh routine covers every row. Issue
	// REFs across two windows, record each row's last refresh from the rows
	// and completion times AutoRefresh returns, and check every row's
	// recency at the horizon.
	timing := smallTiming()
	rows := 1 << 12
	b, err := dram.NewBank(timing, rows)
	if err != nil {
		t.Fatal(err)
	}
	last := make([]dram.Time, rows)
	var now dram.Time
	horizon := 2 * timing.TREFW
	for now < horizon {
		done, refreshed := b.AutoRefresh(now)
		for _, r := range refreshed {
			last[r] = done
		}
		now += timing.TREFI
	}
	for r := 0; r < rows; r++ {
		if age := horizon - last[r]; age > timing.TREFW {
			t.Fatalf("row %d last refreshed %v before the horizon (> tREFW %v)", r, age, timing.TREFW)
		}
	}
}

// TestReplayMemoryFollowsTouchedRows bounds a replay's allocations by the
// rows it touches, not the bank size: a short trace on 4 banks × 2^20 rows
// under Graphene with the oracle armed must allocate under 16 MB in total.
// Per-row bank and oracle arrays alone would take ~100 MB here.
func TestReplayMemoryFollowsTouchedRows(t *testing.T) {
	timing := dram.DDR4()
	rows := 1 << 20
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 4, RowsPerBank: rows}
	var accs []trace.Access
	for i := 0; i < 20000; i++ {
		bank := i % 4
		accs = append(accs, trace.Access{Bank: bank, Row: bank*(rows/4) + (i/4)%64*1031})
	}
	cfg := Config{Geometry: geo, Timing: timing, TRH: 12500, Factory: grapheneFactory(12500, rows, timing)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, trace.FromSlice("spread", accs))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.ACTs != int64(len(accs)) || res.REFCommands == 0 {
		t.Fatalf("replayed %d ACTs and %d REFs, want %d ACTs and some REFs", res.ACTs, res.REFCommands, len(accs))
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("replay allocated %.1f MB", alloc)
	if alloc >= 16 {
		t.Errorf("replay allocated %.1f MB, want < 16 MB", alloc)
	}
}

func TestAllProfilesRunAtDefaultGeometry(t *testing.T) {
	// Every shipped workload profile must fit and run on the paper's
	// geometry without error (guards against footprint drift).
	sc := dram.Default()
	for _, prof := range workload.Profiles() {
		gen, err := prof.Generate(sc, dram.DDR4(), 2_000, 1)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if _, err := Run(Config{Geometry: sc, Timing: dram.DDR4()}, gen); err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
	}
}

func TestTopVictimsReported(t *testing.T) {
	timing := smallTiming()
	cfg := Config{Geometry: oneBank(1 << 12), Timing: timing, TRH: 1 << 40}
	var accs []trace.Access
	for i := 0; i < 5000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: 500})
	}
	res, err := Run(cfg, trace.FromSlice("t", accs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopVictims) == 0 {
		t.Fatal("no top victims reported")
	}
	if v := res.TopVictims[0]; v.Row != 499 && v.Row != 501 {
		t.Errorf("top victim = %+v, want a neighbor of 500", v)
	}
	for i := 1; i < len(res.TopVictims); i++ {
		if res.TopVictims[i].Disturbance > res.TopVictims[i-1].Disturbance {
			t.Error("top victims not sorted")
		}
	}
}

// evilMit is a deliberately buggy scheme used to verify the simulator
// rejects out-of-range refresh requests instead of swallowing them.
type evilMit struct{ onTick bool }

func (e *evilMit) Name() string { return "evil" }
func (e *evilMit) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	if e.onTick {
		return dst
	}
	return append(dst, mitigation.VictimRefresh{Rows: []int{1 << 30}})
}
func (e *evilMit) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	if !e.onTick {
		return dst
	}
	return append(dst, mitigation.VictimRefresh{Rows: []int{-1}})
}
func (e *evilMit) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(e, dst, rows, now, dwell)
}
func (e *evilMit) Cost() mitigation.HardwareCost { return mitigation.HardwareCost{} }

func TestBuggySchemeErrorsPropagate(t *testing.T) {
	timing := smallTiming()
	// Out-of-range refresh from OnActivate.
	_, err := Run(Config{
		Geometry: oneBank(64), Timing: timing,
		Factory: func() (mitigation.Mitigator, error) { return &evilMit{}, nil },
	}, trace.FromSlice("x", []trace.Access{{Bank: 0, Row: 1}}))
	if err == nil {
		t.Error("out-of-range OnActivate refresh not rejected")
	}
	// Out-of-range refresh from Tick (needs a gap crossing a tREFI).
	_, err = Run(Config{
		Geometry: oneBank(64), Timing: timing,
		Factory: func() (mitigation.Mitigator, error) { return &evilMit{onTick: true}, nil },
	}, trace.FromSlice("x", []trace.Access{{Bank: 0, Row: 1, Gap: 2 * timing.TREFI}}))
	if err == nil {
		t.Error("out-of-range Tick refresh not rejected")
	}
}

func TestPerBankBreakdownLocalizesAttack(t *testing.T) {
	// An attack on bank 2 of 4 must charge victim refreshes to bank 2
	// alone, while the refresh routine covers all banks.
	timing := smallTiming()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 4, RowsPerBank: 1 << 12}
	var accs []trace.Access
	for i := 0; i < 100_000; i++ {
		accs = append(accs, trace.Access{Bank: 2, Row: 600})
	}
	res, err := Run(Config{
		Geometry: geo, Timing: timing,
		Factory: graphene.Factory(graphene.Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing}),
		TRH:     2000,
	}, trace.FromSlice("local", accs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBank) != 4 {
		t.Fatalf("PerBank has %d entries", len(res.PerBank))
	}
	var totalVictim int64
	for _, b := range res.PerBank {
		totalVictim += b.RowsVictim
		if b.Bank != 2 && b.RowsVictim != 0 {
			t.Errorf("bank %d charged %d victim rows for bank 2's attack", b.Bank, b.RowsVictim)
		}
		if b.RowsAuto == 0 {
			t.Errorf("bank %d never auto-refreshed", b.Bank)
		}
	}
	if totalVictim != res.RowsVictim {
		t.Errorf("per-bank victims %d != aggregate %d", totalVictim, res.RowsVictim)
	}
	if res.PerBank[2].ACTs != 100_000 {
		t.Errorf("bank 2 ACTs = %d", res.PerBank[2].ACTs)
	}
}
