package memctrl

import (
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/trr"
)

// TestReplayHotPathZeroAlloc is the hard zero-allocation guarantee behind
// the append-style Mitigator API (DESIGN.md §9): after warmup, replayOne —
// gap, auto-refresh catch-up, activate, oracle disturbance, scheme append,
// victim-refresh apply — performs no heap allocation at all. Unlike the
// -benchmem numbers (integer-rounded per op), testing.AllocsPerRun demands
// an exact zero, so even one allocation every few thousand ACTs fails.
func TestReplayHotPathZeroAlloc(t *testing.T) {
	timing := dram.DDR4()
	cases := []struct {
		name       string
		factory    mitigation.Factory // nil = unprotected baseline
		hammerPair bool
	}{
		// No scheme at all: the bare gap/REF/ACT/oracle loop.
		{"unprotected", nil, false},
		// A quiet stream under Graphene: scatter wide enough that no row
		// approaches T, so the scheme path runs but never appends.
		{"graphene-quiet", graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}), false},
		// Trigger-heavy: TRH 200/K=1 gives T=50, so hammering two rows
		// fires an NRR every 100 ACTs — the append, NRR apply, and oracle
		// refresh paths all run inside the measured window.
		{"graphene-trigger-heavy", graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: timing}), true},
		// TRR on the quiet stream: its sampler sees every ACT, and every
		// tick refreshes the strongest candidate's neighbors through the
		// recycled buffer.
		{"trr-quiet", trr.Factory(trr.Config{Rows: hotRows, Seed: 7}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := hotState(t, timing, tc.factory)
			var out bankOut
			acc := trace.Access{Gap: 50 * dram.Nanosecond}
			// Warm every recycled buffer: scheme tables, vrScratch,
			// flipStage, the bank's row scratch, and (trigger-heavy) the
			// NRR path.
			i := 0
			for ; i < 8192; i++ {
				acc.Row = hotRow(i, tc.hammerPair)
				if err := s.replayOne(acc, 0, &out); err != nil {
					t.Fatal(err)
				}
			}
			// 2000 ACTs cover ~13 auto-refresh ticks and, in the
			// trigger-heavy case, ~20 NRR triggers.
			allocs := testing.AllocsPerRun(2000, func() {
				acc.Row = hotRow(i, tc.hammerPair)
				i++
				if err := s.replayOne(acc, 0, &out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("replayOne allocated %.2f times per ACT, want exactly 0", allocs)
			}
		})
	}
}
