package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphene/internal/faultinject"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
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
	factories := make([]mitigation.Factory, len(schemes))
	for si, spec := range schemes {
		factories[si] = spec.Factory(sc.Seed)
	}
	var want []Row
	for _, mk := range AdversarialPatterns(oneBank) {
		base, err := memctrl.Run(memctrl.Config{Geometry: oneBank.Geometry, Timing: oneBank.Timing}, mk())
		if err != nil {
			t.Fatal(err)
		}
		row := Row{Workload: mk().Name()}
		for si, spec := range schemes {
			res, err := memctrl.Run(memctrl.Config{
				Geometry: oneBank.Geometry, Timing: oneBank.Timing,
				Factory: factories[si], TRH: trh,
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
	factories := make([]mitigation.Factory, len(schemes))
	for si, spec := range schemes {
		factories[si] = spec.Factory(sc.Seed)
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
		for si, spec := range schemes {
			gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := memctrl.Run(memctrl.Config{
				Geometry: sc.Geometry, Timing: sc.Timing,
				Factory: factories[si], TRH: trh,
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
// checks the sweep surfaces the error.
func TestFailingCellAbortsSweep(t *testing.T) {
	sc := fastScale()
	profiles := pick(workload.Profiles(), "mcf", "libquantum")
	boom := errors.New("boom")
	schemes := []Spec{
		{Name: "broken", Factory: func(int64) mitigation.Factory {
			return func() (mitigation.Mitigator, error) { return nil, boom }
		}},
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

// sitePasses counts how often one unfaulted replay of src passes the named
// fault site: a zero-length delay armed on every pass fires each time, and
// the injector's recorder counts the firings.
func sitePasses(t *testing.T, sc Scale, site string, src source) int64 {
	t.Helper()
	inj, err := faultinject.New(site + ":delay=0s:p=1")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	inj.SetRecorder(rec)
	gen, err := src.gen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memctrl.Run(memctrl.Config{Geometry: sc.Geometry, Timing: sc.Timing, Fault: inj}, gen); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot().Counters["faults_injected_total"]
}

// TestFaultInjectRetriedSweepMatchesUnfaulted: a fault that a retry absorbs
// must leave no trace in the output. Each case injects one error halfway
// through a replay — a baseline, a cell of the first grid row, a cell of
// the last — at the hit where a serial sweep is in that replay, and the
// retried sweep must deep-equal the unfaulted one at Jobs 1 and 4.
func TestFaultInjectRetriedSweepMatchesUnfaulted(t *testing.T) {
	sc := fastScale()
	const trh = 50000
	want, err := AdversarialSweepOpts(sc, trh, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneBank := singleBank(sc)
	srcs := patternSources(AdversarialPatterns(oneBank))
	first, last := want[0], want[len(want)-1]
	schemes := int64(len(first.Cells))

	for _, site := range []string{faultinject.SiteReplay, faultinject.SitePartition} {
		// A serial sweep replays each row's baseline and then its cells,
		// all over the same stream, so row w spans (schemes+1)×passes[w].
		passes := make([]int64, len(srcs))
		var total int64
		for w, src := range srcs {
			passes[w] = sitePasses(t, oneBank, site, src)
			total += (schemes + 1) * passes[w]
		}
		h0, hl := passes[0], passes[len(passes)-1]
		cases := []struct {
			where string
			hit   int64
			in    string // the failing replay, as the unretried error names it
		}{
			{"baseline", h0/2 + 1, "sim: baseline " + first.Workload + ":"},
			{"first-row cell", h0 + h0/2 + 1, "sim: " + first.Workload + "/" + first.Cells[0].Scheme + ":"},
			{"last-row cell", total - hl/2, "sim: " + last.Workload + "/" + last.Cells[schemes-1].Scheme + ":"},
		}
		for _, c := range cases {
			spec := fmt.Sprintf("%s:error:%d", site, c.hit)
			inject := func() *faultinject.Injector {
				inj, err := faultinject.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				return inj
			}
			if _, err := AdversarialSweepOpts(sc, trh, Options{Jobs: 1, Fault: inject()}); err == nil || !strings.Contains(err.Error(), c.in) {
				t.Fatalf("%s (%s): unretried serial sweep err = %v, want a failure in %q", spec, c.where, err, c.in)
			}
			for _, jobs := range []int{1, 4} {
				inj := inject()
				rec := obs.New()
				inj.SetRecorder(rec)
				got, err := AdversarialSweepOpts(sc, trh, Options{Jobs: jobs, Fault: inj, Retry: sched.RetryPolicy{MaxAttempts: 3}})
				if err != nil {
					t.Errorf("%s (%s) jobs=%d: retried sweep failed: %v", spec, c.where, jobs, err)
					continue
				}
				if n := rec.Snapshot().Counters["faults_injected_total"]; n != 1 {
					t.Errorf("%s (%s) jobs=%d: fault fired %d times, want 1", spec, c.where, jobs, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (%s) jobs=%d: retried sweep diverges from the unfaulted one:\n got  %+v\n want %+v", spec, c.where, jobs, got, want)
				}
			}
		}
	}
}
