// Benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md §4 maps each exhibit to its bench). The benches both time the
// regeneration and attach the reproduced headline numbers as custom
// metrics, so `go test -bench=.` doubles as a reproduction report.
package graphene

import (
	"fmt"
	"strings"
	"testing"

	"graphene/internal/area"
	"graphene/internal/dram"
	grapheneimpl "graphene/internal/graphene"
	"graphene/internal/hammer"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/prohit"
	"graphene/internal/sched"
	"graphene/internal/security"
	"graphene/internal/sim"
	"graphene/internal/sketch"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// benchScale is the sizing used by the figure benches: large enough that
// ratios stabilize, small enough that a full -bench=. pass stays in
// minutes.
func benchScale() sim.Scale {
	return sim.Scale{
		Geometry:           dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 64 * 1024},
		Timing:             dram.DDR4(),
		WorkloadAccesses:   120_000,
		AdversarialWindows: 0.25,
		Seed:               1,
	}
}

func BenchmarkTable1_RefreshParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := dram.DDR4()
		if err := t.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dram.DDR4().MaxACTs(dram.DDR4().TREFW)), "W-acts/window")
}

func BenchmarkTable2_GrapheneParams(b *testing.B) {
	var p grapheneimpl.Params
	for i := 0; i < b.N; i++ {
		var err error
		p, err = grapheneimpl.Config{TRH: 50000, K: 1}.Derive()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.T), "T")
	b.ReportMetric(float64(p.NEntry), "Nentry")
}

func BenchmarkTable4_TableSizes(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		entries, err := area.Schemes(50000, dram.Default(), dram.DDR4())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if e.Scheme == "graphene-k2" {
				bits = e.PerBank.TotalBits()
			}
		}
	}
	b.ReportMetric(float64(bits), "graphene-bits/bank")
}

func BenchmarkTable5_EnergyModel(b *testing.B) {
	// Replays the paper's Table V arithmetic: one full window at maximum
	// activation rate against one bank.
	sc := benchScale()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 64 * 1024}
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := memctrl.Run(memctrl.Config{Geometry: geo, Timing: sc.Timing},
			workload.S3(0, 100, 50_000))
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.RefreshOverhead()
	}
	_ = ratio
}

func BenchmarkFig6_ResetWindowSweep(b *testing.B) {
	var rows []sim.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Fig6(50000, 64*1024, dram.DDR4(), 1, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].NEntry), "Nentry-k2")
	b.ReportMetric(100*rows[1].WorstCaseRefreshRatio, "worst-extra-refresh-%")
}

func BenchmarkFig7_AdversarialPatterns(b *testing.B) {
	// Monte-Carlo of PRoHIT vs Fig. 7(a) at the compressed security scale.
	timing := dram.Timing{
		TREFI: 244 * dram.Nanosecond, TRFC: 20 * dram.Nanosecond,
		TRC: 45 * dram.Nanosecond, TRCD: 13300, TRP: 13300, TCL: 13300,
		TREFW: 2 * dram.Millisecond,
	}
	acts := timing.MaxACTs(timing.TREFW)
	var failures float64
	for i := 0; i < b.N; i++ {
		res, err := security.MonteCarlo(security.MCConfig{
			Factory: prohit.Factory(prohit.Config{Rows: 8192, Seed: int64(i), TickRefreshP: 0.14}),
			Pattern: func(trial int) trace.Generator { return workload.ProHITPattern(0, 4096, acts) },
			TRH:     1200, Rows: 8192, Timing: timing, Trials: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		failures = res.FailureProb
	}
	b.ReportMetric(failures, "prohit-fig7a-failure-prob")
}

// fig8Cells runs one normal-workload sweep over a representative pair of
// profiles and returns the per-scheme cells.
func fig8Cells(b *testing.B, sc sim.Scale) []sim.Row {
	b.Helper()
	schemes, err := sim.CounterSchemes(50000, sc)
	if err != nil {
		b.Fatal(err)
	}
	profiles := []workload.Profile{}
	for _, p := range workload.Profiles() {
		if p.Name == "mcf" || p.Name == "lbm" {
			profiles = append(profiles, p)
		}
	}
	rows, err := sim.SweepProfilesOpts(sc, 50000, profiles, schemes, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func maxBy(rows []sim.Row, prefix string, f func(sim.Cell) float64) float64 {
	var max float64
	for _, r := range rows {
		for _, c := range r.Cells {
			if strings.HasPrefix(c.Scheme, prefix) && f(c) > max {
				max = f(c)
			}
		}
	}
	return max
}

func BenchmarkFig8a_NormalEnergy(b *testing.B) {
	sc := benchScale()
	var rows []sim.Row
	for i := 0; i < b.N; i++ {
		rows = fig8Cells(b, sc)
	}
	b.ReportMetric(100*maxBy(rows, "Graphene", func(c sim.Cell) float64 { return c.RefreshOverhead }), "graphene-max-%")
	b.ReportMetric(100*maxBy(rows, "CBT", func(c sim.Cell) float64 { return c.RefreshOverhead }), "cbt-max-%")
	b.ReportMetric(100*maxBy(rows, "PARA", func(c sim.Cell) float64 { return c.RefreshOverhead }), "para-max-%")
}

func BenchmarkFig8b_AdversarialEnergy(b *testing.B) {
	sc := benchScale()
	var rows []sim.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.AdversarialSweepOpts(sc, 50000, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*maxBy(rows, "Graphene", func(c sim.Cell) float64 { return c.RefreshOverhead }), "graphene-max-%")
	b.ReportMetric(100*maxBy(rows, "PARA", func(c sim.Cell) float64 { return c.RefreshOverhead }), "para-max-%")
	b.ReportMetric(100*maxBy(rows, "CBT", func(c sim.Cell) float64 { return c.RefreshOverhead }), "cbt-max-%")
}

func BenchmarkFig8c_NormalPerf(b *testing.B) {
	sc := benchScale()
	var rows []sim.Row
	for i := 0; i < b.N; i++ {
		rows = fig8Cells(b, sc)
	}
	b.ReportMetric(100*maxBy(rows, "Graphene", func(c sim.Cell) float64 { return c.Slowdown }), "graphene-max-slowdown-%")
	b.ReportMetric(100*maxBy(rows, "CBT", func(c sim.Cell) float64 { return c.Slowdown }), "cbt-max-slowdown-%")
}

func BenchmarkFig9a_AreaScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sweep, err := area.Sweep(dram.Default(), dram.DDR4())
		if err != nil {
			b.Fatal(err)
		}
		low := sweep[1562]
		var tw, gr float64
		for _, e := range low {
			switch e.Scheme {
			case "twice":
				tw = float64(e.PerRank.TotalBits())
			case "graphene-k2":
				gr = float64(e.PerRank.TotalBits())
			}
		}
		ratio = tw / gr
	}
	b.ReportMetric(ratio, "twice/graphene-at-1.56K")
}

func BenchmarkFig9b_EnergyScalingNormal(b *testing.B) {
	sc := benchScale()
	sc.WorkloadAccesses = 60_000
	var rows []sim.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.ScalingNormalOpts(sc, []int64{50000, 12500}, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[len(rows)-1].Cells[3].RefreshOverhead, "para-at-12.5K-%")
}

func BenchmarkFig9c_EnergyScalingAdversarial(b *testing.B) {
	sc := benchScale()
	sc.AdversarialWindows = 0.1
	var rows []sim.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.ScalingAdversarialOpts(sc, []int64{50000, 12500}, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[len(rows)-1].Cells[0].RefreshOverhead, "graphene-at-12.5K-%")
}

func BenchmarkFig9d_PerfScaling(b *testing.B) {
	sc := benchScale()
	sc.WorkloadAccesses = 60_000
	var rows []sim.ScalingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.ScalingNormalOpts(sc, []int64{50000, 12500}, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[len(rows)-1].Cells[2].Slowdown, "cbt-at-12.5K-slowdown-%")
}

func BenchmarkSecVA_ParaP(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		var err error
		p, err = security.MinimalParaP(50000, security.DefaultSystem(), 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p, "p-at-50K")
}

func BenchmarkNonAdjacentFactor(b *testing.B) {
	var p grapheneimpl.Params
	for i := 0; i < b.N; i++ {
		var err error
		p, err = grapheneimpl.Config{TRH: 50000, K: 2, Distance: 4, Mu: grapheneimpl.InverseSquareMu}.Derive()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.AmpFactor, "amp-factor")
	b.ReportMetric(float64(p.NEntry), "Nentry-pm4")
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_OverflowBit compares the modeled table bits with and
// without the §IV-B count compression (protection behaviour is identical —
// TestOverflowBitMatchesReference proves it).
func BenchmarkAblation_OverflowBit(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		pw, err := grapheneimpl.Config{TRH: 50000, K: 2}.Derive()
		if err != nil {
			b.Fatal(err)
		}
		po, err := grapheneimpl.Config{TRH: 50000, K: 2, DisableOverflowBit: true}.Derive()
		if err != nil {
			b.Fatal(err)
		}
		with, without = pw.TableBits, po.TableBits
	}
	b.ReportMetric(float64(with), "bits-with-overflow")
	b.ReportMetric(float64(without), "bits-without")
}

// BenchmarkAblation_ResetWindowK measures worst-case refresh overhead
// across k (the Fig. 6 trade-off) as a single metric pair.
func BenchmarkAblation_ResetWindowK(b *testing.B) {
	var k1, k5 float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig6(50000, 64*1024, dram.DDR4(), 1, 5)
		if err != nil {
			b.Fatal(err)
		}
		k1, k5 = rows[0].WorstCaseRefreshRatio, rows[4].WorstCaseRefreshRatio
	}
	b.ReportMetric(100*k1, "worst-%-k1")
	b.ReportMetric(100*k5, "worst-%-k5")
}

// BenchmarkScheme_AppendOnActivate measures the per-ACT software cost of
// each tracking engine (the hardware does this in one CAM cycle; here it
// bounds simulation throughput). The victim-refresh buffer is recycled the
// way memctrl's replay loop recycles its scratch, so the number reflects
// the steady-state allocation-free hot path.
func BenchmarkScheme_AppendOnActivate(b *testing.B) {
	sc := benchScale()
	specs, err := sim.CounterSchemes(50000, sc)
	if err != nil {
		b.Fatal(err)
	}
	cra, _, err := sim.BuildScheme("cra", 50000, 2, 1, sc.Geometry.RowsPerBank, sc)
	if err != nil {
		b.Fatal(err)
	}
	specs = append(specs, sim.Spec{Name: "CRA", Factory: func(int64) mitigation.Factory { return cra }})
	for _, spec := range specs {
		b.Run(spec.Name, func(b *testing.B) {
			m, err := spec.Factory(sc.Seed)()
			if err != nil {
				b.Fatal(err)
			}
			var vrs []mitigation.VictimRefresh
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vrs = m.AppendOnActivate(vrs[:0], i&0xffff, dram.Time(i)*45*dram.Nanosecond)
			}
		})
	}
}

// BenchmarkTrackerFullScaleAdversarial drives the paper-scale K=1 bank
// (Nentry 108, T 12.5K) with an all-distinct churn stream at the maximum
// activation rate — the adversarial mix that makes nearly every ACT a miss
// and forced the pre-bucket-index tracker through its full linear scan,
// crossing real reset-window boundaries as simulated time advances. It
// reports the software cost (sw-ns/act) next to the modeled hardware
// table-update time for the same observed path mix (hw-ns/act via
// CAMTiming.Aggregate) — the EXPERIMENTS.md full-scale row.
func BenchmarkTrackerFullScaleAdversarial(b *testing.B) {
	eng, err := grapheneimpl.New(grapheneimpl.Config{TRH: 50000, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	timing := dram.DDR4()
	var vrs []mitigation.VictimRefresh
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vrs = eng.AppendOnActivate(vrs[:0], i&0xffff, dram.Time(i)*timing.TRC)
	}
	b.StopTimer()
	s := eng.Table().Stats()
	if paths := s.Hits + s.Replacements + s.Spills; paths > 0 {
		hw := grapheneimpl.DefaultCAMTiming().Aggregate(s)
		b.ReportMetric(float64(hw)/float64(dram.Nanosecond)/float64(paths), "hw-ns/act")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "sw-ns/act")
}

// BenchmarkSweepScheduler measures the sweep pool end to end: the whole
// Fig. 9(c) adversarial scaling grid (3 thresholds × 5 patterns × 4 schemes
// + 5 shared baselines) at -jobs 1 versus every core. The jobs-max/jobs-1
// wall-clock ratio is the speedup EXPERIMENTS.md's sweep-throughput table
// reports; on a single-core runner the two converge by construction.
func BenchmarkSweepScheduler(b *testing.B) {
	sc := benchScale()
	sc.AdversarialWindows = 0.1
	trhs := []int64{50000, 25000, 12500}
	for _, jobs := range []int{1, 0} {
		name := "jobs-1"
		if jobs == 0 {
			name = "jobs-max"
		}
		b.Run(name, func(b *testing.B) {
			var stats sched.MemoStats
			for i := 0; i < b.N; i++ {
				rows, err := sim.ScalingAdversarialOpts(sc, trhs, sim.Options{Jobs: jobs, BaselineStats: &stats})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(trhs) {
					b.Fatalf("got %d scaling rows", len(rows))
				}
			}
			b.ReportMetric(float64(stats.Misses), "baseline-runs")
			b.ReportMetric(float64(stats.Hits), "baseline-hits")
		})
	}
}

// BenchmarkOracle_Activate measures the ground-truth oracle's per-ACT cost.
func BenchmarkOracle_Activate(b *testing.B) {
	for _, dist := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("distance-%d", dist), func(b *testing.B) {
			o, err := newOracle(dist)
			if err != nil {
				b.Fatal(err)
			}
			var fl []hammer.Flip
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl = o.AppendActivate(fl[:0], i&0xffff, 0)
				if i&0xfff == 0 {
					o.RefreshRow(i & 0xffff)
				}
			}
		})
	}
}

func newOracle(dist int) (*hammer.Oracle, error) {
	return hammer.NewOracle(64*1024, 1<<40, dist, nil)
}

// BenchmarkSecVI_FrequentElements compares the §VI related-work trackers'
// per-ACT software cost and reports the area ratios as metrics.
func BenchmarkSecVI_FrequentElements(b *testing.B) {
	g, err := grapheneimpl.New(grapheneimpl.Config{TRH: 50000, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	cms, err := sketch.NewCMS(sketch.CMSConfig{TRH: 50000, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	ss, err := sketch.NewSpaceSaving(sketch.SSConfig{TRH: 50000, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("misra-gries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.AppendOnActivate(nil, i&0xffff, 0)
		}
	})
	b.Run("count-min", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cms.AppendOnActivate(nil, i&0xffff, 0)
		}
	})
	b.Run("space-saving", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ss.AppendOnActivate(nil, i&0xffff, 0)
		}
	})
	b.ReportMetric(float64(cms.Cost().TotalBits())/float64(g.Cost().TotalBits()), "cms/mg-bits")
	b.ReportMetric(float64(ss.Cost().TotalBits())/float64(g.Cost().TotalBits()), "ss/mg-bits")
}
