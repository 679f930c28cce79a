package memctrl

import (
	"strings"
	"testing"

	"graphene/internal/cra"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/trr"
)

// TestReplayBatchZeroAlloc is TestReplayHotPathZeroAlloc for the block
// replay the router runs on every bank: after warmup, replayBlock — row
// validation, horizon slicing, mitigator batch, oracle prefix,
// ActivateRun, refresh apply — performs no heap allocation at all (the
// AllocsPerRun acceptance floor of the batched replay engine).
func TestReplayBatchZeroAlloc(t *testing.T) {
	timing, ddr5 := dram.DDR4(), dram.DDR5()
	cases := []struct {
		name       string
		timing     dram.Timing
		factory    mitigation.Factory
		hammerPair bool
		dwell      dram.Time
	}{
		{"unprotected", timing, nil, false, 0},
		{"graphene-quiet", timing, graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}), false, 0},
		{"graphene-trigger-heavy", timing, graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: timing}), true, 0},
		{"stack-quiet", timing, mitigation.StackFactory(
			trr.Factory(trr.Config{Rows: hotRows, Seed: 7}),
			graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing}),
		), false, 0},
		// Dwell-column legs: the per-ACT ActCycle horizon walk and the
		// rowpress weighted-observe path must stay allocation-free too.
		{"unprotected-dwell", timing, nil, false, timing.NRAS()},
		{"graphene-rowpress-dwell", timing,
			graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing, Rowpress: true}),
			false, 3 * timing.NRAS()},
		// DDR5 legs: runs capped at the RFM horizon and the RFM issued
		// between a run and its refreshes, with and without dwell, where
		// RowPress hits take ObserveW's closed form.
		{"graphene-trigger-heavy-ddr5", ddr5, graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: ddr5}), true, 0},
		{"graphene-rowpress-ddr5-dwell", ddr5,
			graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: ddr5, Rowpress: true}),
			true, 8 * ddr5.NRAS()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := hotState(t, tc.timing, tc.factory)
			var out bankOut
			cfg := Config{Geometry: oneBank(hotRows)}
			const blockLen = 512
			blk := trace.ColBlock{Rows: make([]int32, blockLen), Gaps: make([]dram.Time, blockLen)}
			if tc.dwell != 0 {
				blk.Dwells = make([]dram.Time, blockLen)
			}
			for j := range blk.Gaps {
				blk.Gaps[j] = 50 * dram.Nanosecond
			}
			for j := range blk.Dwells {
				blk.Dwells[j] = tc.dwell
			}
			fill := func(base int) {
				for j := range blk.Rows {
					blk.Rows[j] = int32(hotRow(base+j, tc.hammerPair))
				}
			}
			// Warm every recycled buffer: the run time scratch, scheme
			// tables, vrScratch, flipStage, and (in the trigger-heavy case)
			// the NRR apply path.
			i := 0
			for ; i < 16; i++ {
				fill(i * blockLen)
				if err := replayBlock(cfg, 1, s, 0, &out, blk); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				fill(i * blockLen)
				i++
				if err := replayBlock(cfg, 1, s, 0, &out, blk); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("replayBlock allocated %.2f times per block, want exactly 0", allocs)
			}
		})
	}
}

// contractBreaker violates the batch contract on purpose: its batch call
// reports whatever consumed count it is configured with.
type contractBreaker struct{ consumed int }

func (c *contractBreaker) Name() string { return "contract-breaker" }
func (c *contractBreaker) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	return dst
}
func (c *contractBreaker) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return dst, c.consumed
}
func (c *contractBreaker) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}
func (c *contractBreaker) Reset()                        {}
func (c *contractBreaker) Cost() mitigation.HardwareCost { return mitigation.HardwareCost{} }

// TestBatchContractViolationFails: a scheme whose batch consumes nothing
// (which would spin the replay forever) or consumes more ACTs than it was
// given must fail the run with a contract error, not hang or corrupt
// accounting.
func TestBatchContractViolationFails(t *testing.T) {
	for _, consumed := range []int{0, -3, 1 << 20} {
		accs := make([]trace.Access, 64)
		for i := range accs {
			accs[i] = trace.Access{Bank: 0, Row: i % 64}
		}
		_, err := Run(Config{
			Geometry: oneBank(64), Timing: smallTiming(),
			Factory: func() (mitigation.Mitigator, error) { return &contractBreaker{consumed: consumed}, nil },
		}, trace.FromSlice("bad", accs))
		if err == nil || !strings.Contains(err.Error(), "batch consumed") {
			t.Errorf("consumed=%d: err = %v, want a batch-contract error", consumed, err)
		}
	}
}

// offerCounter forwards to a CRA engine and counts the ACTs replayRun
// offers its batch call, i.e. how far each walk ahead of a batch reached.
type offerCounter struct {
	*cra.CRA
	calls, offered int
}

func (o *offerCounter) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	o.calls++
	o.offered += len(rows)
	return o.CRA.AppendOnActivateBatch(dst, rows, now, dwell)
}

// TestExtraTrafficWalkBounded: a scheme with extra traffic ends its batch
// at every counter-cache miss, so replayRun sizes the walk ahead of each
// batch from the last one's consumed count instead of walking to the
// refresh horizon. On a stream that misses on every ACT the walk must
// offer at most three ACTs per ACT replayed (walking to the horizon
// offers dozens); on a cache-resident stream it must still grow to long
// runs.
func TestExtraTrafficWalkBounded(t *testing.T) {
	const acts = 8 * streamChunk
	for _, tc := range []struct {
		name      string
		streaming bool
	}{{"streaming", true}, {"resident", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var oc *offerCounter
			cfg := Config{
				Geometry: oneBank(hotRows), Timing: dram.DDR4(),
				Factory: func() (mitigation.Mitigator, error) {
					c, err := cra.New(cra.Config{TRH: 50000, Rows: hotRows})
					oc = &offerCounter{CRA: c}
					return oc, err
				},
			}
			accs := make([]trace.Access, acts)
			for i := range accs {
				accs[i] = trace.Access{Row: hotRow(i, !tc.streaming), Gap: 50 * dram.Nanosecond}
			}
			res, err := Run(cfg, trace.FromSlice("cra", accs))
			if err != nil {
				t.Fatal(err)
			}
			perACT := float64(oc.offered) / acts
			perCall := float64(oc.offered) / float64(oc.calls)
			t.Logf("%d batch calls, %.2f ACTs offered per ACT, %.1f per call, %d extra accesses",
				oc.calls, perACT, perCall, res.ExtraDRAMAccesses)
			if tc.streaming && perACT > 3 {
				t.Errorf("walk offered %.2f ACTs per replayed ACT on a miss-every-ACT stream, want <= 3", perACT)
			}
			if !tc.streaming && perCall < 16 {
				t.Errorf("walk offered %.1f ACTs per batch call on a cache-resident stream, want >= 16", perCall)
			}
		})
	}
}
