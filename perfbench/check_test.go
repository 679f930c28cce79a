package main

import (
	"os"
	"testing"
	"time"

	"graphene/internal/mitigation"
)

// testWorkload is a small replay-benign: two banks, 20K ACTs.
func testWorkload(served bool) benchWorkload {
	return benchWorkload{
		name:  "test",
		serve: served,
		pipe:  pipeline{banks: 2, rows: 16 << 10, profile: "ddr4", oracle: true},
		traces: func(p pipeline, seed int64) []genFunc {
			return []genFunc{mixHigh(p, 20000, derive(seed, 0))}
		},
	}
}

func testJob(t *testing.T, served bool) *job {
	t.Helper()
	jobs, err := makeJobs(testWorkload(served), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

// truncate cuts the job's trace in half, on disk and in memory.
func truncate(t *testing.T, j *job) {
	t.Helper()
	j.data = j.data[:len(j.data)/2]
	if err := os.WriteFile(j.path, j.data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tamper replaces the reference with the digest of a different Result.
func tamper(t *testing.T, j *job) {
	t.Helper()
	res, err := replayFile(j, j.pipe.protected(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res.NRRCommands++
	j.want = digest(res)
}

// corruptions are the broken pipeline outputs the checker must catch.
var corruptions = []struct {
	name    string
	corrupt func(*testing.T, *job)
	broken  bool
}{
	{"intact", func(*testing.T, *job) {}, false},
	{"truncated-trace", truncate, true},
	{"tampered-result", tamper, true},
}

func TestReplayChecker(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			j := testJob(t, false)
			tc.corrupt(t, j)
			got, _ := measureReplay([]*job{j}, 50*time.Millisecond)
			checkTally(t, got, tc.broken)
		})
	}
}

func TestServeChecker(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			j := testJob(t, true)
			tc.corrupt(t, j)
			st, err := serveLoop([]*job{j}, 100*time.Millisecond, nil, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkTally(t, st.tally, tc.broken)
		})
	}
}

// checkTally asserts that a broken pipeline fails every check and
// contributes no speed, and that an intact one passes every check.
func checkTally(t *testing.T, got tally, broken bool) {
	t.Helper()
	if got.attempted == 0 {
		t.Fatal("nothing attempted")
	}
	switch {
	case broken && (got.failed != got.attempted || got.acts != 0 || len(got.latMS) != 0):
		t.Errorf("broken pipeline: %d of %d failed, %d ACTs and %d latencies counted", got.failed, got.attempted, got.acts, len(got.latMS))
	case broken && got.verifiedRatio() >= 1:
		t.Errorf("broken pipeline: verified ratio %v", got.verifiedRatio())
	case !broken && got.failed != 0:
		t.Errorf("intact pipeline: %d of %d failed", got.failed, got.attempted)
	}
}

// TestTracedReplayTransparent checks that the traced run's wrappers leave
// the Result and the decoded stream unchanged and measure every layer, and
// that a decoded stream differing from the generated one fails the check.
func TestTracedReplayTransparent(t *testing.T) {
	j := testJob(t, false)
	var lt layerTotals
	if err := lt.tracedReplay(j, newSpanLog()); err != nil {
		t.Fatal(err)
	}
	if lt.acts != j.acts || lt.decode <= 0 || lt.calls.batchACTs == 0 || lt.calls.scalarCalls == 0 {
		t.Errorf("layer totals %+v", lt)
	}
	j.stream[1]++
	if err := lt.tracedReplay(j, newSpanLog()); err == nil {
		t.Error("traced replay accepted a stream that differs from the generated one")
	}
}

type plainScheme struct{ mitigation.Mitigator }

type extraScheme struct{ mitigation.Mitigator }

func (extraScheme) ExtraDRAMAccesses() int64 { return 7 }

// TestTimedFactoryForwardsExtra checks that the tracker wrapper has
// ExtraDRAMAccesses exactly when the wrapped scheme does, so memctrl's
// choice between its batch and scalar paths is unchanged.
func TestTimedFactoryForwardsExtra(t *testing.T) {
	for _, inner := range []mitigation.Mitigator{plainScheme{}, extraScheme{}} {
		var made []*timedMitigator
		m, err := timedFactory(func() (mitigation.Mitigator, error) { return inner, nil }, &made)()
		if err != nil {
			t.Fatal(err)
		}
		_, want := inner.(extraAccesses)
		x, got := m.(extraAccesses)
		if got != want || len(made) != 1 {
			t.Errorf("%T: wrapper has ExtraDRAMAccesses %v, want %v", inner, got, want)
		}
		if got && x.ExtraDRAMAccesses() != 7 {
			t.Errorf("%T: ExtraDRAMAccesses not forwarded", inner)
		}
	}
}

// TestSeedDeterminesInputs checks that the inputs follow from the seed.
func TestSeedDeterminesInputs(t *testing.T) {
	w := testWorkload(false)
	a, b := testJob(t, false), testJob(t, false)
	if string(a.data) != string(b.data) || a.want != b.want {
		t.Error("same seed gave different inputs")
	}
	jobs, err := makeJobs(w, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if string(jobs[0].data) == string(a.data) {
		t.Error("different seeds gave the same trace")
	}
}
