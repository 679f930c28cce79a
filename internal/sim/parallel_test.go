package sim

import (
	"errors"
	"reflect"
	"testing"

	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/sched"
	"graphene/internal/workload"
)

// fastScale shrinks testScale for the grid tests: enough accesses to
// exercise every scheme, small enough that a whole sweep stays quick.
func fastScale() Scale {
	sc := testScale()
	sc.WorkloadAccesses = 20_000
	sc.AdversarialWindows = 0.05
	return sc
}

func TestAdversarialSweepIdenticalAcrossJobs(t *testing.T) {
	sc := fastScale()
	serial, err := AdversarialSweepOpts(sc, 50000, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AdversarialSweepOpts(sc, 50000, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("-jobs 1 and -jobs 8 diverge:\n jobs=1: %+v\n jobs=8: %+v", serial, parallel)
	}
}

func TestScalingNormalIdenticalAcrossJobs(t *testing.T) {
	sc := fastScale()
	trhs := []int64{50000, 25000}
	serial, err := ScalingNormalOpts(sc, trhs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ScalingNormalOpts(sc, trhs, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("-jobs 1 and -jobs 8 diverge:\n jobs=1: %+v\n jobs=8: %+v", serial, parallel)
	}
}

// TestAdversarialSweepMatchesSerialReference replays the historical serial
// adversarial-sweep loop verbatim and requires the scheduled sweep to equal
// it cell-for-cell. This pins byte-identity across the scheduler port — in
// particular the instantiation order of stateful factories (PARA derives
// each engine's seed from a closure counter).
func TestAdversarialSweepMatchesSerialReference(t *testing.T) {
	sc := fastScale()
	const trh = 50000

	oneBank := singleBank(sc)
	schemes, err := CounterSchemes(trh, oneBank)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, mk := range AdversarialPatterns(oneBank) {
		base, err := memctrl.Run(memctrl.Config{Geometry: oneBank.Geometry, Timing: oneBank.Timing}, mk())
		if err != nil {
			t.Fatal(err)
		}
		row := Row{Workload: mk().Name()}
		for _, spec := range schemes {
			res, err := memctrl.Run(memctrl.Config{
				Geometry: oneBank.Geometry, Timing: oneBank.Timing,
				Factory: spec.Factory, TRH: trh,
			}, mk())
			if err != nil {
				t.Fatal(err)
			}
			row.Cells = append(row.Cells, Cell{
				Scheme:          spec.Name,
				RefreshOverhead: res.RefreshOverhead(),
				Slowdown:        res.SlowdownVs(base),
				VictimRows:      res.RowsVictim,
				NRRCommands:     res.NRRCommands,
				Flips:           len(res.Flips),
			})
		}
		want = append(want, row)
	}

	got, err := AdversarialSweepOpts(sc, trh, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scheduled sweep diverges from the serial reference:\n got  %+v\n want %+v", got, want)
	}
}

// TestSweepProfilesMatchesSerialReference is the normal-workload twin of the
// adversarial reference test, including multi-bank geometry (the factory is
// called once per bank, so the serial order is nbanks calls per cell).
func TestSweepProfilesMatchesSerialReference(t *testing.T) {
	sc := fastScale()
	const trh = 50000
	profiles := pick(workload.Profiles(), "mcf", "libquantum")

	schemes, err := CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, prof := range profiles {
		row := Row{Workload: prof.Name}
		baseGen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := memctrl.Run(memctrl.Config{Geometry: sc.Geometry, Timing: sc.Timing}, baseGen)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range schemes {
			gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := memctrl.Run(memctrl.Config{
				Geometry: sc.Geometry, Timing: sc.Timing,
				Factory: spec.Factory, TRH: trh,
			}, gen)
			if err != nil {
				t.Fatal(err)
			}
			row.Cells = append(row.Cells, Cell{
				Scheme:          spec.Name,
				RefreshOverhead: res.RefreshOverhead(),
				Slowdown:        res.SlowdownVs(base),
				VictimRows:      res.RowsVictim,
				NRRCommands:     res.NRRCommands,
				Flips:           len(res.Flips),
			})
		}
		want = append(want, row)
	}

	freshSchemes, err := CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepProfilesOpts(sc, trh, profiles, freshSchemes, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scheduled sweep diverges from the serial reference:\n got  %+v\n want %+v", got, want)
	}
}

func TestBaselineMemoizationCounted(t *testing.T) {
	sc := fastScale()
	trhs := []int64{50000, 25000}
	var stats sched.MemoStats
	if _, err := ScalingAdversarialOpts(sc, trhs, Options{Jobs: 4, BaselineStats: &stats}); err != nil {
		t.Fatal(err)
	}
	// 5 attack patterns × 4 schemes × 2 thresholds = 40 cells, but only 5
	// distinct unprotected baselines — every other cell reuses one.
	npat := len(AdversarialPatterns(singleBank(sc)))
	schemes, err := CounterSchemes(trhs[0], singleBank(sc))
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(npat * len(schemes) * len(trhs))
	if stats.Misses != int64(npat) {
		t.Errorf("baseline replays = %d, want %d (one per pattern)", stats.Misses, npat)
	}
	if stats.Hits != cells-int64(npat) {
		t.Errorf("baseline cache hits = %d, want %d", stats.Hits, cells-int64(npat))
	}
}

func TestProgressReportsEveryCell(t *testing.T) {
	sc := fastScale()
	var done int
	var total int
	finals := 0
	_, err := AdversarialSweepOpts(sc, 50000, Options{Jobs: 4, Progress: func(p sched.Progress) {
		if p.Final {
			finals++
			if p.Err != nil {
				t.Errorf("final progress carries error %v on a clean sweep", p.Err)
			}
			return
		}
		done++
		total = p.Total
		if p.Done != done {
			t.Errorf("progress Done = %d at callback %d", p.Done, done)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 || done != total {
		t.Errorf("progress saw %d/%d cells", done, total)
	}
	if finals != 1 {
		t.Errorf("got %d final callbacks, want 1", finals)
	}
}

// TestFailingCellAbortsSweep injects a scheme whose factory fails and
// checks the sweep surfaces the error without deadlocking — the ordered
// factory handoff must pass the turn even when a cell cannot build its
// engines.
func TestFailingCellAbortsSweep(t *testing.T) {
	sc := fastScale()
	profiles := pick(workload.Profiles(), "mcf", "libquantum")
	boom := errors.New("boom")
	schemes := []Spec{
		{Name: "broken", Factory: func() (mitigation.Mitigator, error) { return nil, boom }},
	}
	_, err := SweepProfilesOpts(sc, 50000, profiles, schemes, Options{Jobs: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the factory error", err)
	}
}

// TestUnprotectedSpecRuns covers the nil-factory path (a Spec with no
// factory simulates "none") through the scheduler.
func TestUnprotectedSpecRuns(t *testing.T) {
	sc := fastScale()
	profiles := pick(workload.Profiles(), "mcf")
	rows, err := SweepProfilesOpts(sc, 50000, profiles, []Spec{{Name: "none"}}, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Cells) != 1 {
		t.Fatalf("unexpected shape %+v", rows)
	}
	c := rows[0].Cells[0]
	if c.Scheme != "none" || c.VictimRows != 0 {
		t.Errorf("unprotected cell = %+v", c)
	}
	if c.Slowdown != 0 {
		t.Errorf("unprotected run slowed down vs its own baseline: %g", c.Slowdown)
	}
}
