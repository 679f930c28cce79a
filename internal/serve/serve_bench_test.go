package serve

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/sim"
	"graphene/internal/trace"
)

// The serve-path gate (`make bench-serve`, BENCH_serve.json): the daemon's
// full TCP round trip — frame encode on the client, frame decode + columnar
// trace decode + per-(tenant, bank) batched replay on the server — over the
// same aggregate work as a direct in-process memctrl.RunBlocks sweep.
// rhbench asserts three floors on the serve side and two on its journaled
// twin, serve-resumable:
//
//	serve ns/op within 2x of direct     (-assert-speedup serve:direct:0.5)
//	aggregate throughput >= 10M ACT/s   (-assert-min acts/s)
//	bounded memory, <= 16 bytes/ACT     (-assert-max b/act)
//	journaled ns/op within 4/3 of serve (-assert-speedup resumable:serve:0.75)
//	journal not held, <= 18 bytes/ACT   (-assert-max resumable b/act)
//
// One op replays benchTenants tenants x benchActs ACTs on every side, so
// the ns/op ratios are exactly the server-path and journal overhead
// factors.

const (
	benchTenants = 8
	benchBanks   = 8
	benchRows    = 1 << 16
	benchActs    = 1 << 20 // per tenant
)

// benchTrace encodes one synthetic benchTenants-bank trace: round-robin
// banks, scattered rows, trigger-light for Graphene (the batch bench's
// aggregate shape).
func benchTrace(tb testing.TB) []byte {
	tb.Helper()
	accs := make([]trace.Access, benchActs)
	for i := range accs {
		accs[i] = trace.Access{
			Bank: i % benchBanks,
			Row:  (i * 7919) & (benchRows - 1),
			Gap:  50 * dram.Nanosecond,
		}
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, trace.FromSlice("bench", accs)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// benchFactory builds the Graphene engine both sides replay under.
func benchFactory(tb testing.TB) memctrl.Config {
	tb.Helper()
	sc := sim.Scale{Timing: dram.DDR4(), Seed: 1}
	factory, _, err := sim.BuildScheme("graphene", 12500, 2, 1, benchRows, sc)
	if err != nil {
		tb.Fatal(err)
	}
	return memctrl.Config{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: benchBanks, RowsPerBank: benchRows},
		Timing:   dram.DDR4(),
		Factory:  factory,
	}
}

func BenchmarkServePath(b *testing.B) {
	data := benchTrace(b)
	cfg := benchFactory(b)

	b.Run("direct-aggregate", func(b *testing.B) {
		b.SetBytes(int64(benchTenants) * int64(len(data)))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for tn := 0; tn < benchTenants; tn++ {
				br, err := trace.NewBlockReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				res, err := memctrl.RunBlocks(cfg, br)
				if err != nil {
					b.Fatal(err)
				}
				if res.ACTs != benchActs {
					b.Fatalf("replayed %d ACTs, want %d", res.ACTs, benchActs)
				}
			}
		}
		b.StopTimer()
		reportActMetrics(b, nil)
	})

	b.Run("serve-aggregate", func(b *testing.B) { benchServeAggregate(b, data, nil, 0) })

	// The same sessions, each journaled segment by segment (report_every
	// 1) into a checkpoint on disk: the resume path's whole cost.
	b.Run("serve-resumable", func(b *testing.B) {
		ck, err := sched.OpenCheckpoint(filepath.Join(b.TempDir(), "journal.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		defer ck.Close()
		benchServeAggregate(b, data, ck, 1)
	})
}

// benchServeAggregate replays benchTenants concurrent sessions of data per
// op through a live daemon journaling to ck (nil: no journal), every
// session asking for a partial report every reportEvery segments.
func benchServeAggregate(b *testing.B, data []byte, ck *sched.Checkpoint, reportEvery int) {
	rec := obs.New()
	s, err := New(Config{Addr: "127.0.0.1:0", Obs: rec, MaxTenants: benchTenants, Checkpoint: ck})
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	// Persistent per-tenant clients would hide connection setup, but a
	// session is one connection by protocol — dial inside the op.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(int64(benchTenants) * int64(len(data)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		errs := make([]error, benchTenants)
		for tn := 0; tn < benchTenants; tn++ {
			wg.Add(1)
			go func(tn int) {
				defer wg.Done()
				c, err := Dial(s.Addr())
				if err != nil {
					errs[tn] = err
					return
				}
				defer c.Close()
				rep, err := c.Run(Hello{
					Tenant: fmt.Sprintf("bench-%d", tn),
					Scheme: "graphene", TRH: 12500, Rows: benchRows,
					ReportEvery: reportEvery,
				}, bytes.NewReader(data))
				if err != nil {
					errs[tn] = err
					return
				}
				if rep.Result.ACTs != benchActs {
					errs[tn] = fmt.Errorf("tenant %d replayed %d ACTs, want %d", tn, rep.Result.ACTs, benchActs)
				}
			}(tn)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reportActMetrics(b, &struct{ before, after uint64 }{before.TotalAlloc, after.TotalAlloc})
}

// BenchmarkServeShards isolates the tentpole scaling claim: N worker
// shards serve N independent tenant pipelines. Each tenant streams a
// single-bank trace — a single-bank session replays serially, so on one
// shard the tenants queue behind each other and on four shards they run
// four abreast; any speedup is shard scheduling, not per-session bank
// parallelism. Tenant names are picked so sched.ShardOf balances them two
// per shard. The Makefile gate compares shards-4 against shards-1 and
// asserts >= 2x on 4-core runners (parity on smaller ones — a 1-core
// runner cannot scale and must merely not regress).
func BenchmarkServeShards(b *testing.B) {
	const shardActs = 1 << 18 // per tenant; single-bank, so the session is serial
	accs := make([]trace.Access, shardActs)
	for i := range accs {
		accs[i] = trace.Access{Bank: 0, Row: (i * 7919) & (benchRows - 1), Gap: 50 * dram.Nanosecond}
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, trace.FromSlice("shardbench", accs)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	// Two tenants per shard under 4 shards, found by hashing candidates.
	const wantShards = 4
	tenants := make([]string, 0, benchTenants)
	fill := make([]int, wantShards)
	for i := 0; len(tenants) < benchTenants; i++ {
		name := fmt.Sprintf("shard-t%d", i)
		if si := sched.ShardOf(name, wantShards); fill[si] < benchTenants/wantShards {
			fill[si]++
			tenants = append(tenants, name)
		}
	}

	// The sub-bench names use "=" (not "-N"): rhbench strips a trailing
	// "-<digits>" as the GOMAXPROCS suffix, which would fold both legs
	// into one name.
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := New(Config{Addr: "127.0.0.1:0", MaxTenants: benchTenants, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			go s.Serve()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()

			b.SetBytes(int64(benchTenants) * int64(len(data)))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				errs := make([]error, benchTenants)
				for tn, name := range tenants {
					wg.Add(1)
					go func(tn int, name string) {
						defer wg.Done()
						c, err := Dial(s.Addr())
						if err != nil {
							errs[tn] = err
							return
						}
						defer c.Close()
						rep, err := c.Run(Hello{
							Tenant: name,
							Scheme: "graphene", TRH: 12500, Rows: benchRows,
						}, bytes.NewReader(data))
						if err != nil {
							errs[tn] = err
							return
						}
						if rep.Result.ACTs != shardActs {
							errs[tn] = fmt.Errorf("tenant %s replayed %d ACTs, want %d", name, rep.Result.ACTs, shardActs)
						}
					}(tn, name)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			totalActs := int64(b.N) * benchTenants * shardActs
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(totalActs)/sec, "acts/s")
			}
		})
	}
}

// reportActMetrics normalizes the op-level numbers per ACT: acts/s for the
// throughput floor, ns/act for the EXPERIMENTS.md table, and — when alloc
// bounds are provided — b/act for the bounded-memory ceiling. The b/act
// figure spans client and server (same process), so per-session setup
// (mitigation tables, decoder buffers, the report JSON) is amortized over
// the op's ACTs; a per-ACT allocation anywhere on the path would dwarf it.
func reportActMetrics(b *testing.B, alloc *struct{ before, after uint64 }) {
	totalActs := int64(b.N) * benchTenants * benchActs
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(totalActs)/sec, "acts/s")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalActs), "ns/act")
	if alloc != nil {
		b.ReportMetric(float64(alloc.after-alloc.before)/float64(totalActs), "b/act")
	}
}
