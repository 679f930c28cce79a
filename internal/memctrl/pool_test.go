package memctrl

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a quarter of what it is given on purpose.
var raceEnabled bool

// mixHighReplay is a 16-bank mix-high binary trace of three segments,
// replayed under Graphene with the oracle at the golden threshold — the
// shape of perfbench's replay-benign, at a quarter of its length.
func mixHighReplay(t testing.TB) (Config, []byte) {
	t.Helper()
	timing := dram.DDR4()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 16, RowsPerBank: 64 << 10}
	prof, err := workload.ProfileByName("mix-high")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := prof.Generate(geo, timing, 3<<16, 27301)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, gen); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Geometry: geo, Timing: timing, TRH: 12500,
		Factory: graphene.Factory(graphene.Config{TRH: 12500, K: 2, Rows: geo.RowsPerBank, Timing: timing}),
	}
	return cfg, buf.Bytes()
}

func runBlocksBytes(cfg Config, data []byte) (Result, error) {
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return Result{}, err
	}
	return RunBlocks(cfg, br)
}

// TestRepeatedReplaysReuseBuffers replays one trace five times with the
// garbage collector paused, so nothing leaves the pools between replays.
// Every Result must equal the first, and every replay after the first
// must draw its block columns, segment payload and oracle chunks from the
// pools: about 4.8 MB that a replay allocated for itself before they
// existed.
func TestRepeatedReplaysReuseBuffers(t *testing.T) {
	// Above what a replay still allocates with the pools — Graphene's
	// tables, the per-bank state and goroutines, ~0.5 MB, plus a pooled
	// buffer that sync.Pool cannot hand over because it sits in another
	// P's private slot, up to ~0.6 MB — and well below the 5.0–5.7 MB a
	// replay allocated without them.
	const bound = 2 << 20
	cfg, data := mixHighReplay(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var first Result
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := runBlocksBytes(cfg, data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("replay %d: %d ACTs, %d bytes allocated", i, res.ACTs, alloc)
		if i == 0 {
			first = res
			continue
		}
		if !reflect.DeepEqual(res, first) {
			t.Fatalf("replay %d: Result differs from the first:\n got %+v\nwant %+v", i, res, first)
		}
		if alloc >= bound && !raceEnabled {
			t.Errorf("replay %d allocated %d bytes, want < %d: a pool was not reused", i, alloc, bound)
		}
	}
}

// TestConcurrentReplaysShareBuffers runs two replays at a time, over and
// over, so block buffers, payloads and oracle chunks pass between them
// through the pools: a 16-bank mix-high trace under Graphene, and a 3-bank
// trace with a dwell column whose unprotected oracle latches flips,
// replayed alternately through RunBlocks and Run. Each Result must equal
// its own replay run alone beforehand.
func TestConcurrentReplaysShareBuffers(t *testing.T) {
	mixCfg, mixData := mixHighReplay(t)

	timing := smallTiming()
	geo := dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 3, RowsPerBank: 3 << 12}
	pressCfg := Config{Geometry: geo, Timing: timing, TRH: 600}
	// Double-sided RowPress (dwell 8×nRAS) beside a chunk edge on bank 0,
	// its dwell-free twin on bank 2, and a scan over every chunk of bank 1.
	scan := make([]trace.Access, 30000)
	for i := range scan {
		scan[i] = trace.Access{Bank: 1, Row: (i + 1) * 7 % geo.RowsPerBank, Gap: 20 * dram.Nanosecond}
	}
	mix, err := workload.Mix("press", 5,
		workload.RowPressDouble(0, 4095, 8*timing.NRAS(), 30000),
		workload.RowPressDouble(2, 8191, 0, 30000),
		trace.FromSlice("scan", scan))
	if err != nil {
		t.Fatal(err)
	}
	press := trace.Collect(mix)
	var pressBuf bytes.Buffer
	if _, err := trace.WriteBinary(&pressBuf, trace.FromSlice("press", press)); err != nil {
		t.Fatal(err)
	}
	pressData := pressBuf.Bytes()

	mixWant, err := runBlocksBytes(mixCfg, mixData)
	if err != nil {
		t.Fatal(err)
	}
	pressWant, err := runBlocksBytes(pressCfg, pressData)
	if err != nil {
		t.Fatal(err)
	}
	if len(pressWant.Flips) == 0 || len(mixWant.Flips) != 0 {
		t.Fatalf("flips: press %d (want some), mix-high %d (want none)", len(pressWant.Flips), len(mixWant.Flips))
	}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	replay := func(name string, want Result, run func(i int) (Result, error)) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			got, err := run(i)
			if err != nil {
				errs <- fmt.Errorf("%s round %d: %w", name, i, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("%s round %d: Result differs from the replay run alone:\n got %+v\nwant %+v", name, i, got, want)
				return
			}
		}
	}
	wg.Add(2)
	go replay("mix-high", mixWant, func(int) (Result, error) { return runBlocksBytes(mixCfg, mixData) })
	go replay("press", pressWant, func(i int) (Result, error) {
		if i%2 == 1 {
			return Run(pressCfg, trace.FromSlice("press", press))
		}
		return runBlocksBytes(pressCfg, pressData)
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
