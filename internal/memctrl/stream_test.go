package memctrl

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"graphene/internal/cra"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/para"
	"graphene/internal/remap"
	"graphene/internal/trace"
	"graphene/internal/twice"
	"graphene/internal/workload"
)

// diffCase is one differential fixture: mkCfg/mkGen rebuild the config and
// generator fresh per run, since generators are single-use and some
// factories (PARA) are stateful across Factory() calls.
type diffCase struct {
	name  string
	mkCfg func() Config
	mkGen func() trace.Generator
}

// grapheneFactory builds a fresh Graphene factory for the given scale.
func grapheneFactory(trh int64, rows int, timing dram.Timing) mitigation.Factory {
	return graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: timing})
}

// diffCases covers the shapes the block router and the batch core could
// plausibly break: the adversarial suite on one bank, multi-bank mixed
// workloads, remapped geometry, a stateful-seed scheme, chunk-boundary
// trace lengths, DDR5 Refresh Management (ddr5Cases), and CRA's
// counter-traffic stall (craCases).
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	timing := smallTiming()
	const rows = 1 << 12
	const trh = 2000
	attackTotal := int64(80_000)

	var cases []diffCase

	// The §V-B attack suite, single bank, Graphene + oracle — the sweep's
	// hot path.
	attacks := []struct {
		name string
		mk   func() trace.Generator
	}{
		{"S1-10", func() trace.Generator { return workload.S1(0, rows, 10, attackTotal) }},
		{"S1-20", func() trace.Generator { return workload.S1(0, rows, 20, attackTotal) }},
		{"S2", func() trace.Generator { return workload.S2(0, rows, 10, 0.2, attackTotal, 1) }},
		{"S3", func() trace.Generator { return workload.S3(0, rows/2, attackTotal) }},
		{"S4", func() trace.Generator { return workload.S4(0, rows, rows/2, 0.5, attackTotal, 1) }},
	}
	for _, a := range attacks {
		a := a
		cases = append(cases, diffCase{
			name: "attack/" + a.name,
			mkCfg: func() Config {
				return Config{
					Geometry: oneBank(rows), Timing: timing,
					Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				}
			},
			mkGen: a.mk,
		})
	}

	// Multi-bank mixed profile workload: two profiles interleaved over
	// 8 banks, protected + oracle.
	multi := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 8, RowsPerBank: 1 << 14}
	cases = append(cases, diffCase{
		name: "multibank/mix",
		mkCfg: func() Config {
			return Config{
				Geometry: multi, Timing: timing,
				Factory: grapheneFactory(trh, multi.RowsPerBank, timing), TRH: trh,
			}
		},
		mkGen: func() trace.Generator {
			a, err := workload.Profiles()[0].Generate(multi, timing, 40_000, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.Profiles()[10].Generate(multi, timing, 40_000, 2)
			if err != nil {
				t.Fatal(err)
			}
			mix, err := workload.Mix("mix", 3, a, b)
			if err != nil {
				t.Fatal(err)
			}
			return mix
		},
	})

	// Remapped geometry: the remapper sits between the controller's logical
	// addresses and the physical disturbance/refresh machinery.
	rm, err := remap.Permutation(rows, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, diffCase{
		name: "remap/S1-10",
		mkCfg: func() Config {
			return Config{
				Geometry: oneBank(rows), Timing: timing,
				Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				Remap: rm,
			}
		},
		mkGen: func() trace.Generator { return workload.S1(0, rows, 10, attackTotal) },
	})

	// Stateful factory (PARA derives each bank's RNG seed from a closure
	// counter): run() must call Factory() the same number of times in the
	// same order on both paths.
	cases = append(cases, diffCase{
		name: "para/multibank",
		mkCfg: func() Config {
			return Config{
				Geometry: multi, Timing: timing,
				Factory: para.Factory(para.Classic(0.01, multi.RowsPerBank, 7)), TRH: trh,
			}
		},
		mkGen: func() trace.Generator {
			var i int64
			return trace.FromFunc("rr", func() (trace.Access, bool) {
				if i >= 60_000 {
					return trace.Access{}, false
				}
				i++
				return trace.Access{Bank: int(i % 8), Row: int((i * 17) % rows)}, true
			})
		},
	})

	// Chunk-boundary lengths: empty trace, one access, one access around a
	// full chunk, and several chunks plus a partial tail.
	for _, n := range []int{0, 1, streamChunk - 1, streamChunk, streamChunk + 1, 3*streamChunk + 7} {
		n := n
		cases = append(cases, diffCase{
			name: fmt.Sprintf("boundary/%d", n),
			mkCfg: func() Config {
				return Config{
					Geometry: oneBank(rows), Timing: timing,
					Factory: grapheneFactory(trh, rows, timing), TRH: trh,
				}
			},
			mkGen: func() trace.Generator {
				accs := make([]trace.Access, n)
				for i := range accs {
					accs[i] = trace.Access{Bank: 0, Row: (i * 13) % rows}
				}
				return trace.FromSlice("boundary", accs)
			},
		})
	}
	cases = append(cases, ddr5Cases()...)
	return append(cases, craCases()...)
}

// ddr5Timing is smallTiming with DDR5 Refresh Management enabled.
func ddr5Timing(raaimt int) dram.Timing {
	t := smallTiming()
	t.TRFM = 195 * dram.Nanosecond
	t.RAAIMT = raaimt
	return t
}

// ddr5Cases pins the RFM fold: the batch core caps each run at the RFM
// horizon and issues the RFM right after the RAAIMT-th ACT, before that
// ACT's victim refreshes apply. RAAIMT 1 and 2 end nearly every run on an
// RFM; 32 and 33 put the boundary on and off the power-of-two chunk
// lengths. Every RAAIMT replays a dwell-free and an 8×nRAS-dwell stream
// under each scheme with the oracle on, plus the unprotected, oracle-free
// stream that takes the pure-timing walk.
func ddr5Cases() []diffCase {
	const rows = 1 << 12
	const trh = 2000
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: rows}
	var cases []diffCase
	for _, raaimt := range []int{1, 2, 32, 33} {
		timing := ddr5Timing(raaimt)
		schemes := []struct {
			name string
			mk   func() mitigation.Factory
		}{
			{"none", func() mitigation.Factory { return nil }},
			{"graphene", func() mitigation.Factory { return grapheneFactory(trh, rows, timing) }},
			{"rowpress-graphene", func() mitigation.Factory {
				return graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: timing, Rowpress: true})
			}},
			{"para", func() mitigation.Factory { return para.Factory(para.Classic(0.01, rows, 7)) }},
			{"twice", func() mitigation.Factory { return twice.Factory(twice.Config{TRH: trh, Rows: rows, Timing: timing}) }},
		}
		for _, dwell := range []dram.Time{0, 8 * timing.NRAS()} {
			leg := "plain"
			if dwell != 0 {
				leg = "dwell"
			}
			for _, sc := range schemes {
				cases = append(cases, diffCase{
					name: fmt.Sprintf("ddr5/raaimt%d/%s/%s", raaimt, leg, sc.name),
					mkCfg: func() Config {
						return Config{Geometry: geo, Timing: timing, Factory: sc.mk(), TRH: trh}
					},
					mkGen: func() trace.Generator { return ddr5Stream(24_000, rows, dwell) },
				})
			}
		}
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("ddr5/raaimt%d/plain/timing", raaimt),
			mkCfg: func() Config { return Config{Geometry: geo, Timing: timing} },
			mkGen: func() trace.Generator { return ddr5Stream(24_000, rows, 0) },
		})
	}
	return cases
}

// ddr5Stream interleaves n ACTs over two banks. Two of every three ACTs
// per bank hammer the pair 1000/1002 and hold it open for dwell (0 = the
// device minimum); the rest scatter. Think-time gaps cross the refresh
// clock every 97 ACTs, and every 7th ACT idles longer than an RFM, so an
// RFM placed at the wrong time shifts the timeline visibly.
func ddr5Stream(n, rows int, dwell dram.Time) trace.Generator {
	var i int
	return trace.FromFunc("ddr5", func() (trace.Access, bool) {
		if i >= n {
			return trace.Access{}, false
		}
		a := trace.Access{Bank: i & 1}
		k := i >> 1
		if k%3 != 2 {
			a.Row, a.Dwell = 1000+2*(k&1), dwell
		} else {
			a.Row = (k * 7919) % rows
		}
		switch {
		case i%97 == 0:
			a.Gap = 9 * dram.Microsecond
		case i%7 == 0:
			a.Gap = 400 * dram.Nanosecond
		}
		i++
		return a, true
	})
}

// craCases pins CRA's extra-traffic stall on the batch core: CRA stops
// its batch after each counter-cache miss, and replayRun charges the
// miss's traffic after apply, as replayOne does. A cache-resident and a
// streaming row pattern replay on DDR4 timing and on DDR5 (RAAIMT 32),
// the DDR5 leg with and without an 8×nRAS dwell, with the oracle on.
func craCases() []diffCase {
	const rows = 1 << 12
	const trh = 2000
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: rows}
	legs := []struct {
		name   string
		timing dram.Timing
		dwell  dram.Time
	}{
		{"ddr4", smallTiming(), 0},
		{"ddr5/plain", ddr5Timing(32), 0},
		{"ddr5/dwell", ddr5Timing(32), 8 * ddr5Timing(32).NRAS()},
	}
	var cases []diffCase
	for _, leg := range legs {
		for _, streaming := range []bool{false, true} {
			pattern := "resident"
			if streaming {
				pattern = "streaming"
			}
			cases = append(cases, diffCase{
				name: fmt.Sprintf("cra/%s/%s", leg.name, pattern),
				mkCfg: func() Config {
					return Config{
						Geometry: geo, Timing: leg.timing, TRH: trh,
						Factory: cra.Factory(cra.Config{TRH: trh, Rows: rows}),
					}
				},
				mkGen: func() trace.Generator { return craStream(24_000, rows, leg.dwell, streaming) },
			})
		}
	}
	return cases
}

// craStream interleaves n ACTs over two banks. The resident pattern
// cycles eight rows per bank, which stay in CRA's counter cache after
// their first miss and reach its threshold (TRH/4) every 4000 ACTs; the
// streaming pattern strides across the whole bank, so nearly every ACT
// misses and stalls the bank. Two of every three ACTs per bank hold their
// row open for dwell, and gaps cross the refresh clock as in ddr5Stream.
func craStream(n, rows int, dwell dram.Time, streaming bool) trace.Generator {
	var i int
	return trace.FromFunc("cra", func() (trace.Access, bool) {
		if i >= n {
			return trace.Access{}, false
		}
		a := trace.Access{Bank: i & 1}
		k := i >> 1
		if streaming {
			a.Row = (k * 7919) % rows
		} else {
			a.Row = 1000 + 2*(k%8)
		}
		if k%3 != 2 {
			a.Dwell = dwell
		}
		switch {
		case i%97 == 0:
			a.Gap = 9 * dram.Microsecond
		case i%7 == 0:
			a.Gap = 400 * dram.Nanosecond
		}
		i++
		return a, true
	})
}

// checkRFM asserts the RFM accounting a DDR5 Result must show: one RFM
// command per RAAIMT ACTs on every bank.
func checkRFM(t *testing.T, cfg Config, res Result) {
	t.Helper()
	if cfg.Timing.RAAIMT == 0 {
		return
	}
	var total int64
	for _, b := range res.PerBank {
		if want := b.ACTs / int64(cfg.Timing.RAAIMT); b.RFMCommands != want {
			t.Errorf("bank %d: %d RFM commands for %d ACTs, want %d (RAAIMT %d)", b.Bank, b.RFMCommands, b.ACTs, want, cfg.Timing.RAAIMT)
		}
		total += b.RFMCommands
	}
	if res.RFMCommands != total {
		t.Errorf("Result.RFMCommands %d, per-bank sum %d", res.RFMCommands, total)
	}
}

func TestStreamingMatchesBuffered(t *testing.T) {
	for _, tc := range diffCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := runBuffered(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("buffered: %v", err)
			}
			got, err := Run(tc.mkCfg(), tc.mkGen())
			if err != nil {
				t.Fatalf("streaming: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streaming result diverges from buffered:\n got %+v\nwant %+v", got, want)
			}
			checkRFM(t, tc.mkCfg(), got)
		})
	}
}

func TestStreamingErrorBehaviorMatchesBuffered(t *testing.T) {
	cfg := Config{Geometry: oneBank(64), Timing: smallTiming()}
	bad := []struct {
		name string
		accs []trace.Access
	}{
		{"bank", []trace.Access{{Bank: 0, Row: 1}, {Bank: 5, Row: 0}}},
		{"row", []trace.Access{{Bank: 0, Row: 1}, {Bank: 0, Row: 64}}},
		// The invalid access arrives mid-chunk while earlier chunks are
		// already replaying: the partition error must still win.
		{"late", func() []trace.Access {
			accs := make([]trace.Access, 3*streamChunk)
			for i := range accs {
				accs[i] = trace.Access{Bank: 0, Row: i % 64}
			}
			accs[len(accs)-1].Row = -1
			return accs
		}()},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, berr := runBuffered(cfg, trace.FromSlice("bad", tc.accs))
			_, serr := Run(cfg, trace.FromSlice("bad", tc.accs))
			if berr == nil || serr == nil {
				t.Fatalf("invalid access accepted: buffered=%v streaming=%v", berr, serr)
			}
			if berr.Error() != serr.Error() {
				t.Errorf("error text diverges:\n buffered:  %v\n streaming: %v", berr, serr)
			}
		})
	}
}

// TestStreamingPartitionerErrorDrains hits the partitioner's mid-trace
// failure path at full streaming pressure: many banks with chunks already
// queued, an out-of-range access in the middle of the trace, and a long
// valid tail behind it. The run must fail with the partitioner's error,
// the bank goroutines must drain without deadlock (chunks keep recycling
// after close), and the error must match runBuffered's contract exactly.
func TestStreamingPartitionerErrorDrains(t *testing.T) {
	const nbanks = 8
	const rows = 64
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: nbanks, RowsPerBank: rows}
	cfg := Config{Geometry: geo, Timing: smallTiming()}
	total := 20 * streamChunk
	mkGen := func() trace.Generator {
		var i int
		return trace.FromFunc("midfail", func() (trace.Access, bool) {
			if i >= total {
				return trace.Access{}, false
			}
			i++
			a := trace.Access{Bank: (i - 1) % nbanks, Row: (i - 1) % rows}
			if i-1 == total/2 {
				a.Row = rows // out of range mid-trace
			}
			return a, true
		})
	}

	_, berr := runBuffered(cfg, mkGen())
	if berr == nil {
		t.Fatal("buffered path accepted the out-of-range access")
	}

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, mkGen())
		done <- outcome{res, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streaming replay deadlocked after partitioner error")
	}
	if got.err == nil {
		t.Fatal("streaming path accepted the out-of-range access")
	}
	if got.err.Error() != berr.Error() {
		t.Errorf("error text diverges:\n buffered:  %v\n streaming: %v", berr, got.err)
	}
	if !reflect.DeepEqual(got.res, Result{}) {
		t.Errorf("failed run leaked a partial Result: %+v", got.res)
	}
}

// FuzzStreamingMatchesBuffered drives both replay paths with a generated
// trace shape and requires identical Results (or identical failure). A
// non-zero raaimt switches to DDR5 timing with Refresh Management every
// raaimt%64 ACTs and gives every third ACT an 8×nRAS RowPress dwell.
func FuzzStreamingMatchesBuffered(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(500), uint16(3), uint8(0))
	f.Add(int64(2), uint8(4), uint16(5000), uint16(97), uint8(0))
	f.Add(int64(3), uint8(8), uint16(2*streamChunk+5), uint16(13), uint8(0))
	f.Add(int64(4), uint8(2), uint16(0), uint16(1), uint8(0))
	f.Add(int64(5), uint8(3), uint16(3*streamChunk+11), uint16(7), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, banks uint8, total uint16, stride uint16, raaimt uint8) {
		nbanks := int(banks%8) + 1
		rows := 1 << 10
		timing := smallTiming()
		var dwell dram.Time
		if raaimt%64 != 0 {
			timing = ddr5Timing(int(raaimt % 64))
			dwell = 8 * timing.NRAS()
		}
		geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: nbanks, RowsPerBank: rows}
		mkGen := func() trace.Generator {
			var i int64
			return trace.FromFunc("fuzz", func() (trace.Access, bool) {
				if i >= int64(total) {
					return trace.Access{}, false
				}
				i++
				x := i*int64(stride) + seed
				a := trace.Access{
					Bank: int(uint64(x) % uint64(nbanks)),
					Row:  int(uint64(x*31) % uint64(rows)),
					Gap:  dram.Time(uint64(x) % 3000),
				}
				if i%3 == 0 {
					a.Dwell = dwell
				}
				return a, true
			})
		}
		mkCfg := func() Config {
			return Config{
				Geometry: geo, Timing: timing,
				Factory: grapheneFactory(2000, rows, timing), TRH: 2000,
			}
		}
		want, berr := runBuffered(mkCfg(), mkGen())
		got, serr := Run(mkCfg(), mkGen())
		if (berr == nil) != (serr == nil) {
			t.Fatalf("error divergence: buffered=%v streaming=%v", berr, serr)
		}
		if berr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("streaming diverges from buffered:\n got %+v\nwant %+v", got, want)
		}
		checkRFM(t, mkCfg(), got)
	})
}
