package graphene

import (
	"testing"

	"graphene/internal/dram"
)

// FuzzTableInvariants drives a counter table with an arbitrary byte-encoded
// activation stream and checks the structural invariants after every step.
// Run with `go test -fuzz=FuzzTableInvariants` for exploration; the seed
// corpus runs as a regression test in normal `go test` runs.
func FuzzTableInvariants(f *testing.F) {
	f.Add(uint8(3), uint8(10), []byte{0, 1, 2, 3, 0, 0, 1, 9, 9, 9, 9, 9})
	f.Add(uint8(1), uint8(2), []byte{7, 7, 7, 7, 7, 7})
	f.Add(uint8(8), uint8(50), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, nentrySeed, thrSeed uint8, stream []byte) {
		nentry := int(nentrySeed%12) + 1
		thr := int64(thrSeed%80) + 1
		tb, err := NewTable(nentry, thr)
		if err != nil {
			t.Fatalf("NewTable(%d, %d): %v", nentry, thr, err)
		}
		ref := newRef(nentry, thr)
		for i, b := range stream {
			row := int(b)
			got := tb.Observe(row)
			want := ref.observe(row)
			if got != want {
				t.Fatalf("step %d row %d: trigger %v, reference %v", i, row, got, want)
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if tb.Spillover() != ref.spill {
				t.Fatalf("step %d: spillover %d, reference %d", i, tb.Spillover(), ref.spill)
			}
		}
	})
}

// FuzzTableMatchesReference is the differential fuzz target behind the
// Count-CAM cursor: an arbitrary byte-encoded stream is replayed against
// the optimized Table and the naive ReferenceTable, asserting
// byte-identical triggers, spillover, and EstimatedCount/Tracked views at
// every step. resetPeriod > 0 resets both tables on that cadence so window
// boundaries are exercised. Nentry ranges over 1–160, so the unpinned
// bitmap spans up to three words; the seed corpus covers the
// window-boundary, spillover-alert, overflow-pinned and multi-word
// regimes.
func FuzzTableMatchesReference(f *testing.F) {
	// Window boundaries: resets every 5 steps across a skewed stream.
	f.Add(uint8(4), uint8(20), uint16(5), []byte{1, 1, 1, 2, 3, 1, 1, 9, 9, 1, 1, 1, 2, 3})
	// Spillover alert: 1-entry table, threshold 2, all-distinct stream
	// drives the spillover count past T.
	f.Add(uint8(0), uint8(1), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	// Overflow pinning: threshold 3, hot rows reach T and pin, then churn.
	f.Add(uint8(2), uint8(2), uint16(0), []byte{7, 7, 7, 8, 8, 8, 0, 1, 2, 3, 4, 7, 8, 5, 6})
	// Three bitmap words: 130 entries, threshold 3. Rows 0–199 fill every
	// slot and spill; then every third row is hammered, so entries pin in
	// all three words while the spillover count keeps rising.
	var words []byte
	for r := 0; r < 200; r++ {
		words = append(words, byte(r))
	}
	for r := 0; r < 200; r += 3 {
		words = append(words, byte(r), byte(r), byte(r), byte(r+1))
	}
	f.Add(uint8(129), uint8(2), uint16(0), words)
	f.Fuzz(func(t *testing.T, nentrySeed, thrSeed uint8, resetPeriod uint16, stream []byte) {
		nentry := int(nentrySeed)%160 + 1
		thr := int64(thrSeed%80) + 1
		reset := int(resetPeriod % 64)
		opt, err := NewTable(nentry, thr)
		if err != nil {
			t.Fatalf("NewTable(%d, %d): %v", nentry, thr, err)
		}
		ref, err := NewReferenceTable(nentry, thr)
		if err != nil {
			t.Fatalf("NewReferenceTable(%d, %d): %v", nentry, thr, err)
		}
		for i, b := range stream {
			if reset > 0 && i > 0 && i%reset == 0 {
				opt.Reset()
				ref.Reset()
			}
			row := int(b)
			got, want := opt.Observe(row), ref.Observe(row)
			mustMatchStep(t, "fuzz", i, row, opt, ref, got, want)
		}
	})
}

// FuzzBankNeverMissesTheorem replays arbitrary streams against a bank-level
// engine sized by Derive, asserting the §III-C theorem: no row gains T ACTs
// within a window without a victim refresh.
func FuzzBankNeverMissesTheorem(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 9, 5, 9, 5, 9, 200, 200, 200})
	f.Fuzz(func(t *testing.T, stream []byte) {
		cfg := Config{TRH: 600, K: 2, Rows: 256, Timing: smallTiming()}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(stream) == 0 {
			return
		}
		p := b.Params()
		since := map[int]int64{}
		windows := b.Resets()
		// Cycle the fuzz stream at the maximum ACT rate for one full reset
		// window — the budget Inequality 1 sizes the table for.
		for i := int64(0); i < p.W; i++ {
			row := int(stream[i%int64(len(stream))]) % cfg.Rows
			now := dram.Time(i) * cfg.Timing.TRC
			vrs := b.AppendOnActivate(nil, row, now)
			if b.Resets() != windows {
				windows = b.Resets()
				clear(since)
			}
			since[row]++
			if len(vrs) > 0 {
				since[row] = 0
			}
			if since[row] > p.T {
				t.Fatalf("row %d gained %d > T=%d ACTs without refresh", row, since[row], p.T)
			}
		}
	})
}
