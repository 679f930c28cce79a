package graphene

import (
	"math/rand"
	"reflect"
	"testing"
)

// observeUnits is ObserveW's definition: w Observe calls, with the trigger
// and the spillover alert's rising edge folded the way ObserveW reports
// them.
func observeUnits(tb *Table, row int, w int64) (trigger, alertEdge bool) {
	pre := tb.Spillover()
	for ; w > 0; w-- {
		if tb.Observe(row) {
			trigger = true
		}
	}
	return trigger, pre < tb.T() && tb.Spillover() >= tb.T()
}

// wOp is one step of a weighted stream: ObserveW(row, w), or a window
// reset of both tables.
type wOp struct {
	row   int
	w     int64
	reset bool
}

// replayW feeds ops to a table through ObserveW and to its twin through
// unit Observe calls, and fails on the first step where any observable
// differs or the closed-form table breaks an invariant.
func replayW(t *testing.T, nentry int, thr int64, ops []wOp) {
	t.Helper()
	got, err := NewTable(nentry, thr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTable(nentry, thr)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.reset {
			got.Reset()
			want.Reset()
			continue
		}
		gt, ga := got.ObserveW(op.row, op.w)
		wt, wa := observeUnits(want, op.row, op.w)
		if gt != wt || ga != wa {
			t.Fatalf("step %d ObserveW(%d, %d): trigger/alertEdge %v/%v, unit walk %v/%v", i, op.row, op.w, gt, ga, wt, wa)
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("step %d ObserveW(%d, %d): stats %+v, unit walk %+v", i, op.row, op.w, got.Stats(), want.Stats())
		}
		if got.Spillover() != want.Spillover() || got.Observed() != want.Observed() {
			t.Fatalf("step %d ObserveW(%d, %d): spillover/observed %d/%d, unit walk %d/%d",
				i, op.row, op.w, got.Spillover(), got.Observed(), want.Spillover(), want.Observed())
		}
		if !reflect.DeepEqual(got.Tracked(), want.Tracked()) {
			t.Fatalf("step %d ObserveW(%d, %d): tracked %+v, unit walk %+v", i, op.row, op.w, got.Tracked(), want.Tracked())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("step %d ObserveW(%d, %d): %v", i, op.row, op.w, err)
		}
	}
}

// TestObserveWMatchesUnits pins the closed-form weighted hit against its
// definition on the shapes that stress it — weights past T, pinned
// entries, a miss that turns into a hit mid-call, the alert edge, resets —
// and on seeded random streams.
func TestObserveWMatchesUnits(t *testing.T) {
	cases := []struct {
		name   string
		nentry int
		thr    int64
		ops    []wOp
	}{
		// One call crosses T several times: several triggers, the entry
		// pins on the first, the stored count wraps.
		{"weight-past-T", 2, 3, []wOp{{row: 5, w: 1}, {row: 5, w: 10}, {row: 5, w: 7}, {row: 6, w: 3}}},
		// Hits on an entry already pinned: the count wraps and the
		// unpinned bitmap is left alone.
		{"pinned-entry", 2, 4, []wOp{{row: 5, w: 4}, {row: 5, w: 3}, {row: 5, w: 9}, {row: 6, w: 2}, {row: 7, w: 1}, {row: 5, w: 1}}},
		// Row 2 misses and spills until the spillover reaches row 1's
		// count, replaces it, and takes the remaining units as hits.
		{"miss-then-hit", 1, 50, []wOp{{row: 1, w: 3}, {row: 2, w: 9}, {row: 2, w: 5}}},
		// A +w hit skips past, lands on, and lands between other slots'
		// counts; the next miss must still pick the lowest-index slot at
		// the spillover count.
		{"bucket-moves", 4, 100, []wOp{{row: 1, w: 2}, {row: 2, w: 5}, {row: 3, w: 9}, {row: 1, w: 3}, {row: 2, w: 7}, {row: 4, w: 1}, {row: 4, w: 12}}},
		// All-distinct rows drive a one-entry table's spillover past T
		// inside a single call.
		{"alert-edge", 1, 3, []wOp{{row: 1, w: 1}, {row: 2, w: 2}, {row: 3, w: 2}, {row: 4, w: 5}, {row: 5, w: 2}}},
		// Resets between weighted hits on pinned and live entries.
		{"resets", 2, 5, []wOp{{row: 1, w: 7}, {reset: true}, {row: 1, w: 2}, {row: 2, w: 12}, {reset: true}, {row: 2, w: 4}, {row: 1, w: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { replayW(t, tc.nentry, tc.thr, tc.ops) })
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nentry := 1 + rng.Intn(8)
		thr := int64(1 + rng.Intn(20))
		ops := make([]wOp, 400)
		for i := range ops {
			if rng.Intn(60) == 0 {
				ops[i].reset = true
				continue
			}
			ops[i] = wOp{row: rng.Intn(3 * nentry), w: 1 + rng.Int63n(3*thr)}
		}
		replayW(t, nentry, thr, ops)
	}
}

// FuzzObserveWMatchesUnits is TestObserveWMatchesUnits over arbitrary
// streams: each byte pair is a row and a weight (1–48, so past T for most
// thresholds), and a weight byte of 0xff resets both tables.
func FuzzObserveWMatchesUnits(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte{5, 1, 5, 9, 5, 6, 6, 2})
	f.Add(uint8(0), uint8(49), []byte{1, 2, 2, 8, 2, 4, 3, 0, 4, 0})
	f.Add(uint8(3), uint8(4), []byte{1, 6, 0, 0xff, 1, 1, 2, 11, 3, 40, 0xff, 0xff, 2, 3})
	f.Fuzz(func(t *testing.T, nentrySeed, thrSeed uint8, stream []byte) {
		var ops []wOp
		for i := 0; i+1 < len(stream); i += 2 {
			if stream[i+1] == 0xff {
				ops = append(ops, wOp{reset: true})
				continue
			}
			ops = append(ops, wOp{row: int(stream[i] % 24), w: int64(stream[i+1]%48) + 1})
		}
		replayW(t, int(nentrySeed%12)+1, int64(thrSeed%80)+1, ops)
	})
}
