package graphene

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graphene/internal/dram"
)

// tracker is the common surface of the optimized Table and the naive
// ReferenceTable; the differential harness drives both through it.
type tracker interface {
	Observe(row int) bool
	Reset()
	T() int64
	Len() int
	Spillover() int64
	Observed() int64
	Alert() bool
	Triggers() int64
	Stats() TableStats
	EstimatedCount(row int) (int64, bool)
	Tracked() []TrackedRow
	CheckInvariants() error
}

var (
	_ tracker = (*Table)(nil)
	_ tracker = (*ReferenceTable)(nil)
)

func sortedTracked(tb tracker) []TrackedRow {
	out := tb.Tracked()
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// mustMatchStep asserts that every observable of the two trackers is
// byte-identical after one Observe step.
func mustMatchStep(t *testing.T, label string, step int, row int, opt, ref tracker, gotTrigger, wantTrigger bool) {
	t.Helper()
	if gotTrigger != wantTrigger {
		t.Fatalf("%s step %d row %d: trigger %v, reference %v", label, step, row, gotTrigger, wantTrigger)
	}
	if opt.Spillover() != ref.Spillover() {
		t.Fatalf("%s step %d: spillover %d, reference %d", label, step, opt.Spillover(), ref.Spillover())
	}
	if opt.Observed() != ref.Observed() {
		t.Fatalf("%s step %d: observed %d, reference %d", label, step, opt.Observed(), ref.Observed())
	}
	if opt.Alert() != ref.Alert() {
		t.Fatalf("%s step %d: alert %v, reference %v", label, step, opt.Alert(), ref.Alert())
	}
	if opt.Triggers() != ref.Triggers() {
		t.Fatalf("%s step %d: triggers %d, reference %d", label, step, opt.Triggers(), ref.Triggers())
	}
	if os, rs := opt.Stats(), ref.Stats(); os != rs {
		t.Fatalf("%s step %d: stats %+v, reference %+v", label, step, os, rs)
	}
	got, want := sortedTracked(opt), sortedTracked(ref)
	if len(got) != len(want) {
		t.Fatalf("%s step %d: tracked %d rows, reference %d", label, step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s step %d: tracked[%d] = %+v, reference %+v", label, step, i, got[i], want[i])
		}
		ec, eok := opt.EstimatedCount(got[i].Row)
		rc, rok := ref.EstimatedCount(got[i].Row)
		if eok != rok || ec != rc {
			t.Fatalf("%s step %d: EstimatedCount(%d) = %d,%v, reference %d,%v", label, step, got[i].Row, ec, eok, rc, rok)
		}
	}
	if err := opt.CheckInvariants(); err != nil {
		t.Fatalf("%s step %d: %v", label, step, err)
	}
}

// TestTableMatchesReferenceByteForByte is the differential harness: the
// cursor table must reproduce the naive linear-scan ReferenceTable
// observable for observable — trigger sequence, spillover, alert,
// per-path stats, and the full EstimatedCount/Tracked views — over
// adversarial and random streams, across window resets, in the
// spillover-alert regime, with overflow-pinned entries, and on tables
// whose unpinned bitmap spans one, two and three words.
func TestTableMatchesReferenceByteForByte(t *testing.T) {
	type stream struct {
		label  string
		nentry int
		thr    int64
		reset  int // Reset both tables every reset steps (0 = never)
		steps  int
		next   func(rng *rand.Rand, i int) int
	}
	// multiWord hammers a hot set half again the table's size, so entries
	// reach T in every bitmap word, over noise that keeps the spillover
	// count rising and the cursor restarting.
	multiWord := func(nentry int) func(rng *rand.Rand, i int) int {
		return func(rng *rand.Rand, i int) int {
			if rng.Float64() < 0.7 {
				return rng.Intn(nentry + nentry/2)
			}
			return rng.Intn(5000)
		}
	}
	streams := []stream{
		{"random-skewed", 6, 40, 0, 60_000, func(rng *rand.Rand, i int) int {
			if rng.Float64() < 0.5 {
				return rng.Intn(4)
			}
			return 4 + rng.Intn(80)
		}},
		{"rotation-worst-case", 8, 25, 0, 40_000, func(rng *rand.Rand, i int) int {
			return i % 9 // Nentry+1 rows marching to T together
		}},
		{"all-distinct-churn", 8, 1 << 40, 0, 40_000, func(rng *rand.Rand, i int) int {
			return i % 4096
		}},
		{"overflow-pinning", 4, 10, 0, 30_000, func(rng *rand.Rand, i int) int {
			if i%3 != 0 {
				return rng.Intn(3) // hot rows pin quickly at T=10
			}
			return 3 + rng.Intn(500)
		}},
		{"spillover-alert", 2, 3, 0, 20_000, func(rng *rand.Rand, i int) int {
			return rng.Intn(4096) // undersized table: spill races past T
		}},
		{"window-boundaries", 5, 30, 997, 50_000, func(rng *rand.Rand, i int) int {
			if rng.Float64() < 0.4 {
				return rng.Intn(3)
			}
			return rng.Intn(200)
		}},
		{"one-full-word", 64, 12, 1500, 20_000, multiWord(64)},
		{"second-word", 65, 12, 1500, 20_000, multiWord(65)},
		{"third-word", 130, 12, 2500, 30_000, multiWord(130)},
	}
	for _, s := range streams {
		t.Run(s.label, func(t *testing.T) {
			opt := mustTable(t, s.nentry, s.thr)
			ref, err := NewReferenceTable(s.nentry, s.thr)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41))
			pinned := make([]bool, len(opt.unpinned)) // per bitmap word
			for i := 0; i < s.steps; i++ {
				if s.reset > 0 && i > 0 && i%s.reset == 0 {
					opt.Reset()
					ref.Reset()
				}
				row := s.next(rng, i)
				got, want := opt.Observe(row), ref.Observe(row)
				// Full-view comparison every step is O(Nentry log Nentry);
				// these shapes are small enough to afford it.
				mustMatchStep(t, s.label, i, row, opt, ref, got, want)
				for j, e := range opt.entries {
					pinned[j>>6] = pinned[j>>6] || e.overflow
				}
			}
			// An entry pins when it first triggers, so a stream that can
			// trigger must pin an entry in every bitmap word.
			if s.thr < 1<<30 && slices.Contains(pinned, false) {
				t.Errorf("%s: bitmap words with a pinned entry %v; differential coverage incomplete", s.label, pinned)
			}
		})
	}
}

// TestTableMatchesReferenceAtPaperScale runs the differential comparison
// at the paper's derived shapes (Nentry 108/81) with end-of-stream view
// checks, so the O(1) index is validated at the sizes the simulator uses.
func TestTableMatchesReferenceAtPaperScale(t *testing.T) {
	for _, k := range []int{1, 2} {
		p, err := Config{TRH: 50000, K: k}.Derive()
		if err != nil {
			t.Fatal(err)
		}
		opt := mustTable(t, p.NEntry, p.T)
		ref, err := NewReferenceTable(p.NEntry, p.T)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 500_000; i++ {
			row := rng.Intn(64)
			if rng.Float64() < 0.4 {
				row = 64 + rng.Intn(60_000)
			}
			if got, want := opt.Observe(row), ref.Observe(row); got != want {
				t.Fatalf("K=%d step %d: trigger %v, reference %v", k, i, got, want)
			}
			if opt.Spillover() != ref.Spillover() {
				t.Fatalf("K=%d step %d: spillover %d, reference %d", k, i, opt.Spillover(), ref.Spillover())
			}
		}
		mustMatchStep(t, "paper-scale", 500_000, -1, opt, ref, false, false)
	}
}

// TestOverflowBitBankEquivalence: the §IV-B compression is an
// implementation detail — at the bank level, the sequence of victim
// refreshes must be identical with and without it (only the modeled bit
// count changes). Verified over randomized streams spanning window resets.
func TestOverflowBitBankEquivalence(t *testing.T) {
	mk := func(disable bool) *Bank {
		b, err := New(Config{
			TRH: 2000, K: 2, Rows: 1 << 12, Timing: smallTiming(),
			DisableOverflowBit: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	with, without := mk(false), mk(true)
	if with.Params().TableBits >= without.Params().TableBits {
		t.Errorf("compression did not shrink the table: %d vs %d bits",
			with.Params().TableBits, without.Params().TableBits)
	}

	rng := rand.New(rand.NewSource(31))
	for i := int64(0); i < 500_000; i++ {
		row := rng.Intn(64)
		if rng.Float64() < 0.4 {
			row = 64 + rng.Intn(4000)
		}
		now := dram.Time(i) * 47 * dram.Nanosecond
		a := with.AppendOnActivate(nil, row, now)
		b := without.AppendOnActivate(nil, row, now)
		if len(a) != len(b) {
			t.Fatalf("ACT %d: refresh count diverged (%d vs %d)", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Aggressor != b[j].Aggressor || a[j].Distance != b[j].Distance {
				t.Fatalf("ACT %d: refresh %d diverged (%+v vs %+v)", i, j, a[j], b[j])
			}
		}
	}
	if with.VictimRefreshes() == 0 {
		t.Error("stream never triggered; equivalence untested")
	}
}

// TestKChoiceTradesTableForRefreshes: larger k yields a smaller table but
// never a protection difference — both configurations stay flip-free while
// the k=5 engine issues more victim refreshes under attack.
func TestKChoiceTradesTableForRefreshes(t *testing.T) {
	timing := smallTiming()
	mk := func(k int) *Bank {
		b, err := New(Config{TRH: 2000, K: k, Rows: 1 << 12, Timing: timing})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	k2, k5 := mk(2), mk(5)
	if k5.Params().NEntry >= k2.Params().NEntry {
		t.Errorf("k=5 table (%d) not smaller than k=2 (%d)", k5.Params().NEntry, k2.Params().NEntry)
	}
	// Hammer one row for several windows.
	for i := int64(0); i < 300_000; i++ {
		now := dram.Time(i) * timing.TRC
		k2.AppendOnActivate(nil, 600, now)
		k5.AppendOnActivate(nil, 600, now)
	}
	if k5.VictimRefreshes() <= k2.VictimRefreshes() {
		t.Errorf("k=5 refreshes (%d) not above k=2 (%d) — Fig. 6 trade-off missing",
			k5.VictimRefreshes(), k2.VictimRefreshes())
	}
}
