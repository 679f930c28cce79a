package sim

import (
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/workload"
)

// testScale keeps the integration tests fast: two banks, short traces, a
// sub-window adversarial burst.
func testScale() Scale {
	return Scale{
		Geometry:           dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 64 * 1024},
		Timing:             dram.DDR4(),
		WorkloadAccesses:   80_000,
		AdversarialWindows: 0.15,
		Seed:               1,
	}
}

func pick(profiles []workload.Profile, names ...string) []workload.Profile {
	var out []workload.Profile
	for _, p := range profiles {
		for _, n := range names {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

func TestParaPReturnsPaperValues(t *testing.T) {
	p, err := ParaP(50000)
	if err != nil || p != 0.00145 {
		t.Errorf("ParaP(50K) = %g, %v; want 0.00145", p, err)
	}
	// Unlisted threshold falls back to the analytic minimum.
	p2, err := ParaP(40000)
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= 0.00145 || p2 >= 0.00295 {
		t.Errorf("ParaP(40K) = %g, want between the 50K and 25K values", p2)
	}
}

func TestCounterSchemesLineUp(t *testing.T) {
	specs, err := CounterSchemes(50000, testScale())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
		m, err := s.Factory()
		if err != nil {
			t.Fatalf("%s factory: %v", s.Name, err)
		}
		if m == nil {
			t.Fatalf("%s factory returned nil", s.Name)
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"Graphene", "TWiCe", "CBT-128", "PARA-0.00145"} {
		if !strings.Contains(joined, want) {
			t.Errorf("scheme %q missing from %v", want, names)
		}
	}
}

func TestNormalWorkloadsFig8a8c(t *testing.T) {
	// Fig. 8(a)/(c) shape on two representative workloads: Graphene and
	// TWiCe issue zero victim refreshes (zero energy and performance
	// overhead); PARA issues a small, nonzero number; nobody flips a bit.
	sc := testScale()
	schemes, err := CounterSchemes(50000, sc)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SweepProfilesOpts(sc, 50000, pick(workload.Profiles(), "mcf", "libquantum"), schemes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.Flips != 0 {
				t.Errorf("%s/%s: %d bit flips on a normal workload", row.Workload, c.Scheme, c.Flips)
			}
			switch {
			case c.Scheme == "Graphene" || c.Scheme == "TWiCe":
				if c.VictimRows != 0 {
					t.Errorf("%s/%s: %d victim rows, want 0 (Fig. 8(a))", row.Workload, c.Scheme, c.VictimRows)
				}
				if c.Slowdown > 1e-9 {
					t.Errorf("%s/%s: slowdown %g, want 0 (Fig. 8(c))", row.Workload, c.Scheme, c.Slowdown)
				}
			case strings.HasPrefix(c.Scheme, "PARA"):
				if c.VictimRows == 0 {
					t.Errorf("%s/PARA issued no refreshes", row.Workload)
				}
				if c.RefreshOverhead > 0.02 {
					t.Errorf("%s/PARA overhead %g, want small", row.Workload, c.RefreshOverhead)
				}
			}
		}
	}
}

func TestAdversarialFig8b(t *testing.T) {
	sc := testScale()
	rows, err := AdversarialSweepOpts(sc, 50000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // S1-10, S1-20, S2, S3, S4
		t.Fatalf("%d adversarial rows, want 5", len(rows))
	}
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.Flips != 0 {
				t.Errorf("%s/%s: %d bit flips under attack", row.Workload, c.Scheme, c.Flips)
			}
			if c.Scheme == "Graphene" {
				// §V-B2: bounded by ≈ 0.34%; allow headroom for the
				// compressed run length.
				if c.RefreshOverhead > 0.01 {
					t.Errorf("%s/Graphene overhead %.4f, want <= 1%%", row.Workload, c.RefreshOverhead)
				}
			}
		}
	}
	// S3 (single-row hammer): CBT must refresh far more rows than
	// Graphene (bursty region refreshes, §II-C).
	var s3 Row
	for _, row := range rows {
		if row.Workload == "S3" {
			s3 = row
		}
	}
	var grapheneRows, cbtRows int64
	for _, c := range s3.Cells {
		if c.Scheme == "Graphene" {
			grapheneRows = c.VictimRows
		}
		if strings.HasPrefix(c.Scheme, "CBT") {
			cbtRows = c.VictimRows
		}
	}
	if grapheneRows == 0 {
		t.Error("S3 triggered no Graphene refreshes")
	}
	if cbtRows < 10*grapheneRows {
		t.Errorf("CBT refreshed %d rows vs Graphene %d; expected a much larger burst", cbtRows, grapheneRows)
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig6(50000, 64*1024, dram.DDR4(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	if rows[0].NEntry != 108 || rows[1].NEntry != 81 {
		t.Errorf("NEntry(k=1,2) = %d, %d; want 108, 81", rows[0].NEntry, rows[1].NEntry)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NEntry > rows[i-1].NEntry {
			t.Errorf("table grew at k=%d", rows[i].K)
		}
		if rows[i].WorstCaseRefreshRatio < rows[i-1].WorstCaseRefreshRatio {
			t.Errorf("worst-case refreshes fell at k=%d", rows[i].K)
		}
	}
	// Table-size saving saturates: k=1→2 saves more entries than k=9→10.
	if rows[0].NEntry-rows[1].NEntry <= rows[8].NEntry-rows[9].NEntry {
		t.Error("table-size saving did not saturate with k (Fig. 6)")
	}
}

func TestFig6WorstCaseMatchesSimulation(t *testing.T) {
	// Cross-check the analytic Fig. 6 worst case against a simulated
	// rotation attack at k=2: the measured refresh ratio must come close
	// to (and never exceed) the analytic bound.
	sc := testScale()
	sc.AdversarialWindows = 1.0 // full tREFW so the ratio is exact
	oneBank := sc
	oneBank.Geometry = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 64 * 1024}

	rows, err := Fig6(50000, 64*1024, sc.Timing, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	bound := rows[1].WorstCaseRefreshRatio // k=2

	specs, err := CounterSchemes(50000, oneBank)
	if err != nil {
		t.Fatal(err)
	}
	graphene := specs[0]
	cell, err := RunAttack(oneBank, 50000, graphene, WorstCase(oneBank, 81))
	if err != nil {
		t.Fatal(err)
	}
	if cell.Flips != 0 {
		t.Errorf("worst-case rotation flipped %d bits", cell.Flips)
	}
	if cell.RefreshOverhead > bound*1.05 {
		t.Errorf("simulated worst case %g exceeds analytic bound %g", cell.RefreshOverhead, bound)
	}
	if cell.RefreshOverhead < bound*0.5 {
		t.Errorf("simulated worst case %g far below bound %g; rotation not maximal?", cell.RefreshOverhead, bound)
	}
}

func TestScalingSweepsShape(t *testing.T) {
	sc := testScale()
	sc.WorkloadAccesses = 40_000
	sc.AdversarialWindows = 0.1
	trhs := []int64{50000, 12500}

	adv, err := ScalingAdversarialOpts(sc, trhs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv) != 2 {
		t.Fatalf("%d scaling rows", len(adv))
	}
	overheadOf := func(r ScalingRow, prefix string) float64 {
		for _, c := range r.Cells {
			if strings.HasPrefix(c.Scheme, prefix) {
				return c.RefreshOverhead
			}
		}
		t.Fatalf("scheme %s missing", prefix)
		return 0
	}
	// Fig. 9(c): overheads grow as TRH falls, for Graphene and PARA alike.
	if overheadOf(adv[1], "Graphene") < overheadOf(adv[0], "Graphene") {
		t.Error("Graphene adversarial overhead fell with TRH")
	}
	if overheadOf(adv[1], "PARA") < overheadOf(adv[0], "PARA") {
		t.Error("PARA adversarial overhead fell with TRH")
	}
	for _, r := range adv {
		for _, c := range r.Cells {
			if c.Flips != 0 {
				t.Errorf("TRH %d %s: %d flips", r.TRH, c.Scheme, c.Flips)
			}
		}
	}
}

func TestAverageFolds(t *testing.T) {
	rows := []Row{
		{Workload: "a", Cells: []Cell{{Scheme: "X", RefreshOverhead: 0.1, Slowdown: 0.01, VictimRows: 5}}},
		{Workload: "b", Cells: []Cell{{Scheme: "X", RefreshOverhead: 0.3, Slowdown: 0.03, VictimRows: 7}}},
	}
	avg := average(1234, rows)
	if avg.TRH != 1234 || len(avg.Cells) != 1 {
		t.Fatalf("avg = %+v", avg)
	}
	c := avg.Cells[0]
	if c.RefreshOverhead != 0.2 || c.Slowdown != 0.02 || c.VictimRows != 12 {
		t.Errorf("cell = %+v", c)
	}
}

func TestPagePolicySweep(t *testing.T) {
	sc := testScale()
	sc.WorkloadAccesses = 60_000
	// PARA's refreshes track the ACT rate: open-row policies must shrink
	// its overhead; counter schemes stay silent either way.
	cells, err := PagePolicySweep(sc, 50000, "mcf", "para", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells", len(cells))
	}
	byPolicy := map[string]PolicyCell{}
	for _, c := range cells {
		byPolicy[c.Policy] = c
		if c.Flips != 0 {
			t.Errorf("%s: %d flips", c.Policy, c.Flips)
		}
		if c.Requests != 60_000 {
			t.Errorf("%s: %d requests", c.Policy, c.Requests)
		}
	}
	closed, open := byPolicy["closed-page"], byPolicy["open-page"]
	if closed.RowBufferHits != 0 {
		t.Errorf("closed page hit rate %g", closed.RowBufferHits)
	}
	if open.ACTs >= closed.ACTs {
		t.Errorf("open page did not reduce ACTs: %d vs %d", open.ACTs, closed.ACTs)
	}
	if open.VictimRows >= closed.VictimRows {
		t.Errorf("PARA victim rows did not shrink with ACTs: %d vs %d", open.VictimRows, closed.VictimRows)
	}

	graphene, err := PagePolicySweep(sc, 50000, "mcf", "graphene", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range graphene {
		if c.VictimRows != 0 || c.Flips != 0 {
			t.Errorf("graphene under %s: %d victim rows, %d flips", c.Policy, c.VictimRows, c.Flips)
		}
	}
}

func TestPagePolicySweepRejectsBadInputs(t *testing.T) {
	sc := testScale()
	if _, err := PagePolicySweep(sc, 50000, "nope", "para", 4); err == nil {
		t.Error("accepted unknown profile")
	}
	if _, err := PagePolicySweep(sc, 50000, "mcf", "nope", 4); err == nil {
		t.Error("accepted unknown scheme")
	}
	if _, err := PagePolicySweep(sc, 50000, "mcf", "para", 0); err == nil {
		t.Error("accepted zero burst")
	}
}

func TestSeedVariance(t *testing.T) {
	sc := testScale()
	sc.WorkloadAccesses = 30_000
	r, err := SeedVariance(sc, 50000, "mcf", "para", []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 4 {
		t.Fatalf("N = %d", r.N())
	}
	if r.Mean() <= 0 {
		t.Error("PARA mean overhead not positive")
	}
	// Seeds wiggle the overhead but not wildly: max within 3× min.
	if r.Min() <= 0 || r.Max() > 3*r.Min() {
		t.Errorf("overhead band [%g, %g] suspiciously wide", r.Min(), r.Max())
	}
	// Graphene stays exactly zero across seeds.
	g, err := SeedVariance(sc, 50000, "mcf", "graphene", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Max() != 0 {
		t.Errorf("Graphene overhead %g across seeds, want 0", g.Max())
	}
	if _, err := SeedVariance(sc, 50000, "nope", "para", []int64{1}); err == nil {
		t.Error("accepted unknown profile")
	}
}

func TestProbabilisticSchemesConstruct(t *testing.T) {
	specs, err := ProbabilisticSchemes(50000, testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("%d specs", len(specs))
	}
	for _, s := range specs {
		m, err := s.Factory()
		if err != nil || m == nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	spec := CRASpec(50000, testScale())
	if m, err := spec.Factory(); err != nil || m.Name() != "cra-128" {
		t.Fatalf("CRA spec: %v", err)
	}
}

func TestScalePresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Geometry.Banks() >= f.Geometry.Banks() {
		t.Error("Quick not smaller than Full")
	}
	if f.Geometry.Banks() != 64 {
		t.Errorf("Full banks = %d, want 64 (Table III)", f.Geometry.Banks())
	}
	if f.AdversarialWindows != 1.0 {
		t.Errorf("Full adversarial windows = %g", f.AdversarialWindows)
	}
}
