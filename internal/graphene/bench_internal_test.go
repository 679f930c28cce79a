package graphene

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the per-ACT software paths — address hit, miss with
// replacement (the hardware critical path), and miss with spillover bump —
// measured for both the cursor Table ("optimized") and the naive
// linear-scan ReferenceTable ("reference"), at the paper's K=1 size (108),
// an intermediate size (163), and a DDR5-class low-TRH size (680). The
// reference numbers are the "before" column of the EXPERIMENTS.md hot-path
// table; the optimized numbers are the "after".

type observeOnly interface{ Observe(row int) bool }

// hotPathSizes: the Nentry shapes the EXPERIMENTS.md table reports.
var hotPathSizes = []int{108, 163, 680}

func forEachTrackerSize(b *testing.B, bench func(b *testing.B, nentry int, mk func(t int64) observeOnly)) {
	impls := []struct {
		name string
		mk   func(b *testing.B, nentry int, t int64) observeOnly
	}{
		{"optimized", func(b *testing.B, nentry int, t int64) observeOnly {
			tb, err := NewTable(nentry, t)
			if err != nil {
				b.Fatal(err)
			}
			return tb
		}},
		{"reference", func(b *testing.B, nentry int, t int64) observeOnly {
			tb, err := NewReferenceTable(nentry, t)
			if err != nil {
				b.Fatal(err)
			}
			return tb
		}},
	}
	for _, impl := range impls {
		for _, nentry := range hotPathSizes {
			impl, nentry := impl, nentry
			b.Run(fmt.Sprintf("%s/n%d", impl.name, nentry), func(b *testing.B) {
				bench(b, nentry, func(t int64) observeOnly {
					return impl.mk(b, nentry, t)
				})
			})
		}
	}
}

// BenchmarkObserveHit: address hit, count increment only.
func BenchmarkObserveHit(b *testing.B) {
	forEachTrackerSize(b, func(b *testing.B, _ int, mk func(int64) observeOnly) {
		tb := mk(1 << 40)
		tb.Observe(7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Observe(7)
		}
	})
}

// BenchmarkObserveMissReplace: all-distinct churn — almost every ACT is a
// miss that finds a replacement candidate (Nentry replacements per single
// spillover bump), the Fig. 5 critical path.
func BenchmarkObserveMissReplace(b *testing.B) {
	forEachTrackerSize(b, func(b *testing.B, _ int, mk func(int64) observeOnly) {
		tb := mk(1 << 40)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Observe(i & 0xffff)
		}
	})
}

// BenchmarkObserveMissSpill: every entry is overflow-pinned, so each miss
// scans the whole table (reference) or walks the ⌈Nentry/64⌉ empty words
// of the unpinned bitmap (optimized) before bumping the spillover count —
// the miss path's software worst case.
func BenchmarkObserveMissSpill(b *testing.B) {
	forEachTrackerSize(b, func(b *testing.B, nentry int, mk func(int64) observeOnly) {
		const thr = 4
		tb := mk(thr)
		for r := 0; r < nentry; r++ {
			for j := 0; j < thr; j++ {
				tb.Observe(r) // march row r to T: its entry pins
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Observe(nentry + i&0xffff)
		}
	})
}

// BenchmarkObserveRotationStride rotates 400 rows through a 326-entry
// table (T 2083), the rows a power-of-two stride apart. A trace's sender
// picks the stride, and rows a multiple of the Address-CAM index size
// apart must not share a probe chain, so every stride should cost about
// the same. The table resets, untimed, every ⌊T/3⌋ rotations: an entry's
// count grows by at most ~2.2 a rotation, so none reaches T and pins,
// and every miss replaces a live entry. Without the resets all 326
// entries pin after ~2,000 rotations and the legs time the all-pinned
// spill walk instead; a trigger fails the benchmark.
func BenchmarkObserveRotationStride(b *testing.B) {
	const rows, thr = 400, 2083
	const resetEvery = rows * (thr / 3) // ACTs per 694 rotations
	for _, stride := range []int{1, 128, 2048} {
		b.Run(fmt.Sprintf("stride%d", stride), func(b *testing.B) {
			tb, err := NewTable(326, thr)
			if err != nil {
				b.Fatal(err)
			}
			left := resetEvery
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if left == 0 {
					b.StopTimer()
					tb.Reset()
					b.StartTimer()
					left = resetEvery
				}
				left--
				tb.Observe(i % rows * stride)
			}
			b.StopTimer()
			if n := tb.Stats().Triggers; n != 0 {
				b.Fatalf("%d triggers: an entry reached T and pinned, so the table stopped rotating", n)
			}
		})
	}
}

// BenchmarkTableFullWindowAdversarial replays the paper-scale K=1
// configuration (Nentry 108, T 12.5K, W ≈ 1.36M ACTs per window) with
// all-distinct churn, resetting at window boundaries like the bank does —
// the full-scale adversarial before/after row of EXPERIMENTS.md.
func BenchmarkTableFullWindowAdversarial(b *testing.B) {
	p, err := Config{TRH: 50000, K: 1}.Derive()
	if err != nil {
		b.Fatal(err)
	}
	type resettable interface {
		observeOnly
		Reset()
	}
	impls := []struct {
		name string
		mk   func() resettable
	}{
		{"optimized", func() resettable { tb, _ := NewTable(p.NEntry, p.T); return tb }},
		{"reference", func() resettable { tb, _ := NewReferenceTable(p.NEntry, p.T); return tb }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			tb := impl.mk()
			left := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if left == 0 {
					tb.Reset()
					left = p.W
				}
				left--
				tb.Observe(i & 0xffff)
			}
		})
	}
}

func BenchmarkBankOnActivateRealistic(b *testing.B) {
	eng, err := New(Config{TRH: 50000, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 1<<14)
	for i := range rows {
		if rng.Float64() < 0.6 {
			rows[i] = rng.Intn(128)
		} else {
			rows[i] = 128 + rng.Intn(8192)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AppendOnActivate(nil, rows[i&(1<<14-1)], 0)
	}
}
