package main

import (
	"encoding/csv"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/obs"
	"graphene/internal/sched"
)

// quickOpts sizes the adversarial grid (5 patterns × 4 schemes) small
// enough for a unit test, on the default DDR4 device (a zero profile has
// zero timing, whose attack patterns are empty).
func quickOpts() options {
	return options{trh: 50000, acts: 20_000, windows: 0.05, seed: 1, prof: dram.DDR4Profile()}
}

// adversarialCSV renders one -sweep adversarial run to its CSV bytes.
func adversarialCSV(o options) (string, error) {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	err := sweepAdversarial(w, o)
	w.Flush()
	return sb.String(), err
}

// TestCheckpointResumeByteIdenticalCSV is the end-to-end acceptance
// scenario: a sweep killed mid-run by an injected fault, restarted with
// the same -checkpoint journal, must emit CSV byte-identical to an
// uninterrupted serial run (and therefore identical JSON, which rhsweep
// derives from the CSV).
func TestCheckpointResumeByteIdenticalCSV(t *testing.T) {
	serial := quickOpts()
	serial.jobs = 1
	want, err := adversarialCSV(serial)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	killed := quickOpts()
	killed.jobs = 2
	if killed.fault, err = faultinject.New("sched.job:error:8"); err != nil {
		t.Fatal(err)
	}
	if killed.ckpt, err = sched.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := adversarialCSV(killed); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("killed sweep err = %v, want the injected fault", err)
	}
	if err := killed.ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := quickOpts()
	resumed.jobs = 4
	if resumed.ckpt, err = sched.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	defer resumed.ckpt.Close()
	if resumed.ckpt.Len() == 0 {
		t.Fatal("killed sweep journaled no cells")
	}
	got, err := adversarialCSV(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed CSV differs from the uninterrupted run:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestFaultInjectRetriesByteIdenticalCSV: a sweep whose injected faults
// are all retried away (-retries 3) must emit CSV byte-identical to an
// unfaulted run, wherever in the grid the fault lands — a baseline replay
// or a cell, the first grid row or the last.
func TestFaultInjectRetriesByteIdenticalCSV(t *testing.T) {
	want, err := adversarialCSV(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"memctrl.replay:error:1",
		"memctrl.replay:error:20",
		"memctrl.replay:error:800",
		"memctrl.partition:error:30",
		"memctrl.partition:error:800",
		"sched.job:error:5",
	} {
		for _, jobs := range []int{1, 2} {
			o := quickOpts()
			o.jobs = jobs
			o.retries = 3
			if o.fault, err = faultinject.New(spec); err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			o.fault.SetRecorder(rec)
			got, err := adversarialCSV(o)
			if err != nil {
				t.Errorf("%s jobs=%d: retried sweep failed: %v", spec, jobs, err)
				continue
			}
			if n := rec.Snapshot().Counters["faults_injected_total"]; n != 1 {
				t.Errorf("%s jobs=%d: fault fired %d times, want 1", spec, jobs, n)
			}
			if got != want {
				t.Errorf("%s jobs=%d: retried CSV differs from the unfaulted run:\n got:\n%s\n want:\n%s", spec, jobs, got, want)
			}
		}
	}
}
