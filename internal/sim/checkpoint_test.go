package sim

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"graphene/internal/faultinject"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/workload"
)

// resumeProfiles is the two-workload grid the checkpoint tests sweep; with
// the four counter schemes that is 8 cells.
func resumeProfiles(t *testing.T) []workload.Profile {
	t.Helper()
	return pick(workload.Profiles(), "mcf", "libquantum")
}

// TestCheckpointResumeMatchesUninterrupted is the acceptance scenario: a
// sweep killed mid-run by an injected fault, restarted against the same
// checkpoint journal, must reassemble results identical to an
// uninterrupted serial run — including the PARA cells. Each cell's seed is
// fixed when the sweep is planned (the scale's seed plus the row index
// times the bank count), so a cell that re-runs after the restart draws
// the same engines whether or not the cells before it were restored.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	sc := fastScale()
	const trh = 50000
	profiles := resumeProfiles(t)

	schemes, err := CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepProfilesOpts(sc, trh, profiles, schemes, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(profiles) * len(schemes)

	// First attempt: the 4th scheduled cell fails, aborting the sweep
	// partway with some cells journaled.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.New("sched.job:error:4")
	if err != nil {
		t.Fatal(err)
	}
	schemes, err = CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = SweepProfilesOpts(sc, trh, profiles, schemes, Options{Jobs: 2, Fault: inj, Checkpoint: ck})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("killed sweep err = %v, want the injected fault", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: journaled cells restore, the rest re-run.
	ck, err = sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	restored := ck.Len()
	if restored == 0 {
		t.Fatal("killed sweep journaled no cells")
	}
	if restored >= cells {
		t.Fatalf("killed sweep journaled all %d cells; the fault did not abort it", cells)
	}

	// Every journaled cell must match the uninterrupted reference — an
	// aborted run may leave the journal short, never wrong.
	keys := &sweepPlan{sc: sc}
	for wi, prof := range profiles {
		for si, spec := range schemes {
			var cell Cell
			if ck.Lookup(keys.cellKey(fmt.Sprintf("%s/%s trh=%d", prof.Name, spec.Name, trh)), &cell) {
				if cell != want[wi].Cells[si] {
					t.Errorf("journaled %s/%s = %+v, want %+v", prof.Name, spec.Name, cell, want[wi].Cells[si])
				}
			}
		}
	}

	rec := obs.New()
	schemes, err = CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepProfilesOpts(sc, trh, profiles, schemes, Options{Jobs: 8, Checkpoint: ck, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed sweep diverges from the uninterrupted run:\n got  %+v\n want %+v", got, want)
	}
	if n := rec.Snapshot().Counters["cells_restored_total"]; n != int64(restored) {
		t.Errorf("cells_restored_total = %d, want %d", n, restored)
	}
	if ck.Len() != cells {
		t.Errorf("journal holds %d cells after resume, want %d", ck.Len(), cells)
	}
}

// TestCheckpointKeyedByScale: a journal written at one configuration must
// be invisible to a sweep at another — here the same grid with a
// different seed, whose cells would otherwise be silently wrong.
func TestCheckpointKeyedByScale(t *testing.T) {
	sc := fastScale()
	const trh = 50000
	profiles := resumeProfiles(t)

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := CounterSchemes(trh, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepProfilesOpts(sc, trh, profiles, schemes, Options{Jobs: 2, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	other := sc
	other.Seed = 99
	schemes, err = CounterSchemes(trh, other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepProfilesOpts(other, trh, profiles, schemes, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	ck, err = sched.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	rec := obs.New()
	schemes, err = CounterSchemes(trh, other)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepProfilesOpts(other, trh, profiles, schemes, Options{Jobs: 4, Checkpoint: ck, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("foreign journal leaked into the sweep:\n got  %+v\n want %+v", got, want)
	}
	if n := rec.Snapshot().Counters["cells_restored_total"]; n != 0 {
		t.Errorf("cells_restored_total = %d, want 0 (journal is for another scale)", n)
	}
}
