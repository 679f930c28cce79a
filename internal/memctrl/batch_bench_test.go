package memctrl

import (
	"bytes"
	"testing"

	"graphene/internal/cra"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/hammer"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
)

// The replay-engine benchmarks race the batched core (batch.go) against
// the per-ACT scalar reference over identical ACT runs, each at its
// native boundary: the scalar side replays one streamChunk of ACTs
// through replayOne, the batch side replays the same run's row/gap
// columns through replayRun — the exact shape the columnar block router
// feeds it. One op covers the same ACT count on both sides, so the
// ns/op ratio between a batch/scalar pair IS the ACT/s ratio
// `make bench-replay` gates (BENCH_replay.json; ISSUE 7 demands ≥3x on
// trigger-light replay). The custom ns/act metric is the same number
// normalized per ACT for the EXPERIMENTS.md table.

// benchmarkReplayRun measures one bank replaying the same run b.N times.
// withOracle arms the ground-truth oracle at an unreachable TRH (per-ACT
// disturbance accounting runs, no flips are recorded).
func benchmarkReplayRun(b *testing.B, timing dram.Timing, factory mitigation.Factory, withOracle, scalar, hammerPair bool) {
	bank, err := dram.NewBank(timing, hotRows)
	if err != nil {
		b.Fatal(err)
	}
	s := &bankState{bank: bank, nextREF: timing.TREFI}
	if factory != nil {
		m, err := factory()
		if err != nil {
			b.Fatal(err)
		}
		s.mit = m
		if x, ok := m.(interface{ ExtraDRAMAccesses() int64 }); ok {
			s.extraFn = x.ExtraDRAMAccesses
		}
	}
	if withOracle {
		if s.oracle, err = hammer.NewOracle(hotRows, 1<<40, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	rows := make([]int32, streamChunk)
	gaps := make([]dram.Time, streamChunk)
	for i := range rows {
		rows[i] = int32(hotRow(i, hammerPair))
		gaps[i] = 50 * dram.Nanosecond
	}
	var out bankOut
	run := func() {
		if scalar {
			for k := range rows {
				if err := s.replayOne(trace.Access{Row: int(rows[k]), Gap: gaps[k]}, 0, &out); err != nil {
					b.Fatal(err)
				}
			}
		} else if err := s.replayRun(rows, gaps, nil, 0, &out); err != nil {
			b.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(rows))), "ns/act")
}

func BenchmarkReplayEngine(b *testing.B) {
	timing := dram.DDR4()
	factories := hotFactories()
	heavy := graphene.Factory(graphene.Config{TRH: 200, K: 1, Rows: hotRows, Timing: timing})
	for _, side := range []struct {
		name   string
		scalar bool
	}{{"batch", false}, {"scalar", true}} {
		side := side
		// Trigger-light: no scheme, no oracle — the replay core itself,
		// where the event-horizon loop has the most to win. This is the
		// pair the ≥3x gate rides on.
		b.Run(side.name+"-trigger-light", func(b *testing.B) {
			benchmarkReplayRun(b, timing, nil, false, side.scalar, false)
		})
		// The same on DDR5 (RFM every RAAIMT = 32 ACTs): the batch walk
		// stops at the RFM horizon as well as at REF. This pair gates the
		// RFM fold.
		b.Run(side.name+"-ddr5-trigger-light", func(b *testing.B) {
			benchmarkReplayRun(b, dram.DDR5(), nil, false, side.scalar, false)
		})
		// Oracle-armed unprotected replay: per-ACT disturbance accounting
		// is shared by both paths and bounds the achievable speedup.
		b.Run(side.name+"-oracle", func(b *testing.B) {
			benchmarkReplayRun(b, timing, nil, true, side.scalar, false)
		})
		// Scheme-bound variants: the fused batch paths against their
		// scalar loops, quiet and trigger-heavy.
		b.Run(side.name+"-graphene", func(b *testing.B) {
			benchmarkReplayRun(b, timing, factories["graphene"], false, side.scalar, false)
		})
		b.Run(side.name+"-para", func(b *testing.B) {
			benchmarkReplayRun(b, timing, factories["para"], false, side.scalar, false)
		})
		b.Run(side.name+"-twice", func(b *testing.B) {
			benchmarkReplayRun(b, timing, factories["twice"], false, side.scalar, true)
		})
		b.Run(side.name+"-trigger-heavy", func(b *testing.B) {
			benchmarkReplayRun(b, timing, heavy, false, side.scalar, true)
		})
	}
}

// BenchmarkReplayCRA races the same pair for CRA, the one scheme with
// extra DRAM traffic: its batch stops after every counter-cache miss, and
// the bank is charged the miss's stall before the next ACT. The resident
// leg cycles two rows that stay cached (a miss only on the first ACT);
// the streaming leg scatters rows across the bank, so every ACT misses
// CRA's 128-line cache and ends its batch. CRA's LRU allocates on every
// miss, so these legs sit outside BenchmarkReplayEngine's zero-alloc gate.
func BenchmarkReplayCRA(b *testing.B) {
	timing := dram.DDR4()
	factory := cra.Factory(cra.Config{TRH: 50000, Rows: hotRows})
	for _, side := range []struct {
		name   string
		scalar bool
	}{{"batch", false}, {"scalar", true}} {
		side := side
		b.Run(side.name+"-resident", func(b *testing.B) {
			benchmarkReplayRun(b, timing, factory, false, side.scalar, true)
		})
		b.Run(side.name+"-streaming", func(b *testing.B) {
			benchmarkReplayRun(b, timing, factory, false, side.scalar, false)
		})
	}
}

// BenchmarkReplayRowpress prices the dwell column on the batched replay
// core: the plain leg replays a run with no dwell column (the fixed-tRC
// fast path), the dwell leg replays the same rows with an explicit
// all-nRAS dwell column through a rowpress-configured Graphene — identical
// semantic work (every increment is 1, every ActCycle equals tRC), so the
// ns/op ratio is the pure cost of carrying and weighing the column.
// `make bench-rowpress` gates dwell ≥ 0.8x plain and 0 allocs/op on both.
func BenchmarkReplayRowpress(b *testing.B) {
	timing := dram.DDR4()
	factory := graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: hotRows, Timing: timing, Rowpress: true})
	for _, leg := range []struct {
		name  string
		dwell bool
	}{{"plain", false}, {"dwell", true}} {
		leg := leg
		b.Run(leg.name, func(b *testing.B) {
			bank, err := dram.NewBank(timing, hotRows)
			if err != nil {
				b.Fatal(err)
			}
			s := &bankState{bank: bank, nextREF: timing.TREFI}
			m, err := factory()
			if err != nil {
				b.Fatal(err)
			}
			s.mit = m
			rows := make([]int32, streamChunk)
			gaps := make([]dram.Time, streamChunk)
			var dwells []dram.Time
			if leg.dwell {
				dwells = make([]dram.Time, streamChunk)
			}
			for i := range rows {
				rows[i] = int32(hotRow(i, false))
				gaps[i] = 50 * dram.Nanosecond
				if leg.dwell {
					dwells[i] = timing.NRAS()
				}
			}
			var out bankOut
			run := func() {
				if err := s.replayRun(rows, gaps, dwells, 0, &out); err != nil {
					b.Fatal(err)
				}
			}
			for w := 0; w < 4; w++ {
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				run()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(rows))), "ns/act")
		})
	}
}

// BenchmarkReplayAggregate measures whole-controller throughput over an
// 8-bank interleaved trace: the batch side ingests the binary encoding
// through RunBlocks' columnar router (codec → batch core, no per-access
// structs), the scalar side replays the same accesses through the
// buffered per-ACT oracle path. One op is the full trace, so the ns/op
// ratio is the aggregate ACT/s gain.
func BenchmarkReplayAggregate(b *testing.B) {
	const banks = 8
	const rows = 1 << 16
	const total = banks * (1 << 16)
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: banks, RowsPerBank: rows}
	accs := make([]trace.Access, total)
	for i := range accs {
		accs[i] = trace.Access{
			Bank: i % banks,
			Row:  (i * 7919) & (rows - 1),
			Gap:  50 * dram.Nanosecond,
		}
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, trace.FromSlice("aggregate", accs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	cfg := Config{Geometry: geo, Timing: dram.DDR4()}

	b.Run("batch-allbanks", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			br, err := trace.NewBlockReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunBlocks(cfg, br); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*total), "ns/act")
	})
	b.Run("scalar-allbanks", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := runBuffered(cfg, trace.FromSlice("aggregate", accs)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*total), "ns/act")
	})
}
