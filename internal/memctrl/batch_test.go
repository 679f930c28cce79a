package memctrl

import (
	"reflect"
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/trr"
)

// structOnlySource hides trace.BlockReader's columnar decoder, so the
// struct-block router (replayBlocks) keeps differential coverage now that
// RunBlocks prefers the columnar path for sources that offer it.
type structOnlySource struct{ br *trace.BlockReader }

func (s structOnlySource) Name() string { return s.br.Name() }
func (s structOnlySource) Next(buf []trace.Access) (trace.Block, error) {
	return s.br.Next(buf)
}

// TestBlockStructRouterMatchesBuffered pins the struct-block ingest path
// against the buffered oracle over every differential fixture — the same
// gate TestBlockDirectMatchesBuffered applies to the columnar path.
func TestBlockStructRouterMatchesBuffered(t *testing.T) {
	for _, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := runBuffered(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("buffered: %v", err)
			}
			got, err := RunBlocks(tc.mkCfg(), structOnlySource{blockSourceFor(t, tc.mkGen())})
			if err != nil {
				t.Fatalf("struct-block: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("struct-block result diverges from buffered:\n got %+v\nwant %+v", got, want)
			}
			checkRFM(t, tc.mkCfg(), got)
		})
	}
}

// TestReplayBatchZeroAlloc is TestReplayHotPathZeroAlloc for the batched
// replay core: after warmup, a chunk replay through replayRun — horizon
// slicing, mitigator batch, oracle prefix, ActivateRun, refresh apply —
// performs no heap allocation at all (the AllocsPerRun acceptance floor of
// ISSUE 7).
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
		// Dwell-column legs: the transposed column, the per-ACT ActCycle
		// horizon walk, and the rowpress weighted-observe path must all
		// stay allocation-free too.
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
			cfg := Config{}
			const chunkLen = 512
			chunk := make([]trace.Access, chunkLen)
			fill := func(base int) {
				for j := range chunk {
					chunk[j] = trace.Access{Row: hotRow(base+j, tc.hammerPair), Gap: 50 * dram.Nanosecond, Dwell: tc.dwell}
				}
			}
			// Warm every recycled buffer: the columnar transpose, the run
			// time scratch, scheme tables, vrScratch, flipStage, and (in
			// the trigger-heavy case) the NRR apply path.
			i := 0
			for ; i < 16; i++ {
				fill(i * chunkLen)
				if err := replayChunk(cfg, s, 0, &out, chunk); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				fill(i * chunkLen)
				i++
				if err := replayChunk(cfg, s, 0, &out, chunk); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("batched replayChunk allocated %.2f times per chunk, want exactly 0", allocs)
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
