package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/serve"
	"graphene/internal/sim"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// Every workload runs Graphene at the golden harness threshold with the
// paper's K = 2 reset window, which is also the daemon's default.
const (
	trh = 12500
	k   = 2
)

// Trace sizes. A replay or session is one trace; these keep each one short
// enough that a 20 s run holds well over 100 of them, so p90 has at least
// ten samples beyond it.
const (
	benignACTs  = 3 << 18 // replay-benign: one 16-bank trace
	attackACTs  = 1 << 19 // replay-attack-ddr5: one 4-bank trace
	sessionACTs = 1 << 18 // serve-mixed: each session's 8-bank trace
	sessionPool = 8       // serve-mixed: distinct traces, split between the two clients
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// pipeline is the replay configuration a workload's traces run under, both
// locally and when served.
type pipeline struct {
	banks, rows int
	profile     string // dram profile name: timing of the simulated device
	rowpress    bool   // duration-aware Graphene
	oracle      bool   // arm the ground-truth oracle at trh
}

func (p pipeline) timing() dram.Timing {
	prof, err := dram.ProfileByName(p.profile)
	if err != nil {
		panic(err) // profiles are fixed in the workload table
	}
	return prof.Timing
}

func (p pipeline) geometry() dram.Geometry {
	return dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: p.banks, RowsPerBank: p.rows}
}

func (p pipeline) graphene() graphene.Config {
	return graphene.Config{TRH: trh, K: k, Distance: 1, Rows: p.rows, Timing: p.timing(), Rowpress: p.rowpress}
}

// protected is the memctrl configuration of one replay under Graphene.
func (p pipeline) protected() memctrl.Config {
	cfg := memctrl.Config{Geometry: p.geometry(), Timing: p.timing(), Factory: graphene.Factory(p.graphene())}
	if p.oracle {
		cfg.TRH = trh
	}
	return cfg
}

// timingOnly replays with no tracker and no oracle: the decode, route and
// horizon-walk floor.
func (p pipeline) timingOnly() memctrl.Config {
	return memctrl.Config{Geometry: p.geometry(), Timing: p.timing()}
}

// hello is the handshake that makes the daemon replay a session exactly
// as protected() replays it locally.
func (p pipeline) hello(tenant string, reportEvery int) serve.Hello {
	return serve.Hello{
		Tenant: tenant, Scheme: "graphene", TRH: trh, K: serve.Ptr(k), Distance: 1,
		Rows: p.rows, Profile: p.profile, Rowpress: p.rowpress, Oracle: p.oracle,
		ReportEvery: reportEvery,
	}
}

// genFunc builds a fresh generator for one trace. Set-up calls it twice:
// once to encode the trace, once to feed the reference replay.
type genFunc func() (trace.Generator, error)

type benchWorkload struct {
	name   string
	serve  bool // measured through the daemon instead of file replays
	pipe   pipeline
	traces func(p pipeline, seed int64) []genFunc
}

var workloads = []benchWorkload{
	{
		// The paper's normal-workload case: zero NRRs, so time goes to
		// decode, routing, the horizon walk, Graphene's miss/replace path
		// and the oracle.
		name:   "replay-benign",
		pipe:   pipeline{banks: 16, rows: 64 << 10, profile: "ddr4", oracle: true},
		traces: benignTraces,
	},
	{
		// The adversarial case on DDR5: NRRs cut batch runs, the dwell
		// column is carried, and RFM routes every ACT onto the scalar path.
		name:   "replay-attack-ddr5",
		pipe:   pipeline{banks: 4, rows: 64 << 10, profile: "ddr5", rowpress: true, oracle: true},
		traces: attackTraces,
	},
	{
		// The daemon under two closed-loop clients, one of them journaled.
		name:   "serve-mixed",
		serve:  true,
		pipe:   pipeline{banks: 8, rows: 64 << 10, profile: "ddr4"},
		traces: mixedTraces,
	},
}

func lookup(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// derive gives the i-th generator seed of a run (splitmix64), so every
// input of the run follows from its one seed.
func derive(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func mixHigh(p pipeline, n, seed int64) genFunc {
	return func() (trace.Generator, error) {
		prof, err := workload.ProfileByName("mix-high")
		if err != nil {
			return nil, err
		}
		return prof.Generate(p.geometry(), p.timing(), n, seed)
	}
}

func benignTraces(p pipeline, seed int64) []genFunc {
	return []genFunc{mixHigh(p, benignACTs, derive(seed, 0))}
}

func mixedTraces(p pipeline, seed int64) []genFunc {
	gens := make([]genFunc, sessionPool)
	for i := range gens {
		gens[i] = mixHigh(p, sessionACTs, derive(seed, i))
	}
	return gens
}

// attackTraces interleaves Graphene's worst-case rotation (banks 0-1:
// NEntry rows round-robin at the maximum rate, the sim.WorstCase shape)
// with double-sided RowPress (banks 2-3: aggressors held open 8×nRAS).
func attackTraces(p pipeline, seed int64) []genFunc {
	return []genFunc{func() (trace.Generator, error) {
		params, err := p.graphene().Derive()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(derive(seed, 0)))
		per := int64(attackACTs / 4)
		span := 7 * params.NEntry // RotateRows' row stride is 7
		dwell := sim.RowPressDwell * p.timing().NRAS()
		base := func() int { return 64 + rng.Intn(p.rows-span-128) }
		victim := func() int { return 1 + rng.Intn(p.rows-2) }
		return workload.Mix("attack-ddr5", derive(seed, 1),
			workload.RotateRows("graphene-worst", 0, base(), 7, params.NEntry, per),
			workload.RotateRows("graphene-worst", 1, base(), 7, params.NEntry, per),
			workload.RowPressDouble(2, victim(), dwell, per),
			workload.RowPressDouble(3, victim(), dwell, per),
		)
	}}
}

// job is one generated trace and the reference its replays are checked
// against.
type job struct {
	pipe     pipeline
	data     []byte // the encoded trace: all the pipeline ever receives
	path     string // data on disk, for file replays
	acts     int64
	segments int
	want     string     // digest of the reference Result
	stream   streamHash // the generated accesses, per bank
}

// streamHash fingerprints each bank's access stream in order (word-wise
// FNV-1a over row, gap and dwell). Many decoder faults leave a benign
// workload's Result unchanged, so the traced run also checks that the
// decoded stream is exactly the generated one.
type streamHash []uint64

func (h *streamHash) add(bank int, row int32, gap, dwell dram.Time) {
	for len(*h) <= bank {
		*h = append(*h, 14695981039346656037)
	}
	x := (*h)[bank]
	for _, v := range [3]uint64{uint64(row), uint64(gap), uint64(dwell)} {
		x = (x ^ v) * 1099511628211
	}
	(*h)[bank] = x
}

// setup runs the workload's set-up setupReps times — trace generation and
// encoding, reference replay, and for served workloads the daemon start —
// and returns the last repetition's jobs, the median set-up time in
// seconds, and the started daemon (nil for replay workloads). Repetitions
// must produce identical traces and references: the same seed gives the
// same inputs.
func setup(w benchWorkload, seed int64, dir string) (_ []*job, _ float64, _ *daemon, err error) {
	var (
		jobs  []*job
		first *daemon
		secs  []float64
	)
	defer func() {
		if err != nil && first != nil {
			first.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		js, err := makeJobs(w, seed, dir)
		if err != nil {
			return nil, 0, nil, err
		}
		var d *daemon
		if w.serve {
			if d, err = startDaemon(dir); err != nil {
				return nil, 0, nil, err
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		prev := first
		first = d
		if prev != nil {
			if err := prev.stop(); err != nil {
				return nil, 0, nil, err
			}
		}
		for i := range jobs {
			if !bytes.Equal(jobs[i].data, js[i].data) || jobs[i].want != js[i].want {
				return nil, 0, nil, fmt.Errorf("set-up is not deterministic: trace %d differs between repetitions", i)
			}
		}
		jobs = js
	}
	return jobs, quantile(secs, 0.5), first, nil
}

func makeJobs(w benchWorkload, seed int64, dir string) ([]*job, error) {
	var jobs []*job
	for i, mk := range w.traces(w.pipe, seed) {
		gen, err := mk()
		if err != nil {
			return nil, err
		}
		var (
			buf    bytes.Buffer
			stream streamHash
		)
		n, err := trace.WriteBinary(&buf, trace.FromFunc(gen.Name(), func() (trace.Access, bool) {
			a, ok := gen.Next()
			if ok {
				stream.add(a.Bank, int32(a.Row), a.Gap, a.Dwell)
			}
			return a, ok
		}))
		if err != nil {
			return nil, fmt.Errorf("encoding trace %d: %w", i, err)
		}
		j := &job{pipe: w.pipe, data: buf.Bytes(), acts: n, stream: stream, path: filepath.Join(dir, fmt.Sprintf("trace-%d.rhtb", i))}
		if err := os.WriteFile(j.path, j.data, 0o644); err != nil {
			return nil, err
		}
		var ref memctrl.Result
		if w.serve {
			// A served session is checked against a direct replay of the
			// same bytes.
			var br *trace.BlockReader
			if br, err = trace.NewBlockReader(bytes.NewReader(j.data)); err == nil {
				ref, err = memctrl.RunBlocks(w.pipe.protected(), br)
			}
		} else {
			// A file replay is checked against the generator-driven
			// streaming path, a different ingest route to the same Result.
			if gen, err = mk(); err == nil {
				ref, err = memctrl.Run(w.pipe.protected(), gen)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("reference replay of trace %d: %w", i, err)
		}
		if ref.ACTs != n || len(ref.Flips) != 0 {
			return nil, fmt.Errorf("reference replay of trace %d: %d of %d ACTs, %d oracle flips", i, ref.ACTs, n, len(ref.Flips))
		}
		j.want = digest(ref)
		if j.segments, err = countSegments(j.data); err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// countSegments decodes a whole trace and returns its segment count, which
// a journaled session must report.
func countSegments(data []byte) (int, error) {
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var blk trace.ColBlock
	for {
		if blk, err = br.NextCols(blk); err != nil {
			if errors.Is(err, io.EOF) {
				return br.Segments(), nil
			}
			return 0, err
		}
	}
}

// digest fingerprints a Result. TopVictims ties come out of the
// controller's sort in arbitrary order, so they are re-sorted with a total
// order first.
func digest(res memctrl.Result) string {
	res.TopVictims = append([]memctrl.BankVictim(nil), res.TopVictims...)
	sort.Slice(res.TopVictims, func(i, j int) bool {
		a, b := res.TopVictims[i], res.TopVictims[j]
		if a.Disturbance != b.Disturbance {
			return a.Disturbance > b.Disturbance
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	out, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// check is the verdict on one replay of j.
func (j *job) check(res memctrl.Result, err error) error {
	if err != nil {
		return err
	}
	if res.ACTs != j.acts {
		return fmt.Errorf("replayed %d of %d ACTs", res.ACTs, j.acts)
	}
	if len(res.Flips) != 0 {
		return fmt.Errorf("%d oracle flips under Graphene", len(res.Flips))
	}
	if d := digest(res); d != j.want {
		return fmt.Errorf("result digest %.12s, reference %.12s", d, j.want)
	}
	return nil
}
