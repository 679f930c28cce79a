// Command perfbench is the repository's end-to-end benchmark. It generates
// a seeded Row Hammer workload, drives it through the public pipeline — a
// binary trace file into memctrl.RunBlocks (the rhtrace -replay path), or
// an in-process rhsimd daemon fed over loopback by serve clients (the
// rhload path) — checks every Result against a reference computed in
// set-up, and prints one JSON object of metrics as its last output line.
//
//	bash perfbench/run.sh --workload replay-benign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it makes a separate traced run that times calls into
// each layer's public functions from outside, reports the per-layer
// metrics, and writes its spans to <out>/spans/<workload>-seed<seed>.jsonl
// when the run ends. BENCHMARK.json at the repository root lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the output object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the output object: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	out      string // build and scratch directory inside the checkout
}

func main() {
	var o options
	var seconds float64
	var traced int
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and spans")
	flag.Parse()
	if flag.NArg() != 0 || seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.duration = time.Duration(seconds * float64(time.Second))
	o.traced = traced == 1

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it for o.duration, and assembles the
// output object. Errors are set-up failures; a replay or session that fails
// its check is counted in the result instead.
func run(o options) (result, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return result{}, err
	}
	scratch := filepath.Join(o.out, "work")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	jobs, setupS, first, err := setup(w, o.seed, dir)
	if err != nil {
		return result{}, err
	}
	runtime.GC()

	if o.traced {
		spans := newSpanLog()
		metrics, t, err := tracedRun(jobs, o.duration, first, dir, spans)
		if err != nil {
			return result{}, err
		}
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := spans.write(path); err != nil {
			return result{}, err
		}
		return t.result(metrics), nil
	}

	var (
		before, after runtime.MemStats
		t             tally
		wall          time.Duration
	)
	runtime.ReadMemStats(&before)
	if w.serve {
		start := time.Now()
		st, err := serveLoop(jobs, o.duration, first, dir, nil)
		if err != nil {
			return result{}, err
		}
		t, wall = st.tally, time.Since(start)
	} else {
		t, wall = measureReplay(jobs, o.duration)
	}
	runtime.ReadMemStats(&after)
	if t.attempted == 0 {
		return result{}, fmt.Errorf("no replay or session finished in %v", o.duration)
	}
	if n := len(t.latMS); n < 100 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d sessions; p90 has fewer than 10 beyond it\n", n)
	}

	perACT := func(v float64) float64 {
		if t.acts == 0 {
			return 0
		}
		return v / float64(t.acts)
	}
	metrics := map[string]metric{
		"acts_per_s":      {float64(t.acts) / wall.Seconds(), "ACT/s"},
		"session_p50_ms":  {quantile(t.latMS, 0.5), "ms"},
		"session_p90_ms":  {quantile(t.latMS, 0.9), "ms"},
		"setup_s":         {setupS, "s"},
		"alloc_b_per_act": {perACT(float64(after.TotalAlloc - before.TotalAlloc)), "B/ACT"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"verified_ratio":  {t.verifiedRatio(), "ratio"},
	}
	return t.result(metrics), nil
}

// tally counts attempted and failed replays or sessions. Only verified ones
// contribute ACTs and latency: a failure never counts toward speed.
type tally struct {
	attempted, failed int64
	acts              int64     // ACTs of verified sessions
	latMS             []float64 // latency of each verified session
}

// verify counts one attempt whose check returned err, and reports whether
// it passed.
func (t *tally) verify(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	return err == nil
}

// record adds one timed replay or session; err is its check's verdict.
func (t *tally) record(acts int64, lat time.Duration, err error) {
	if t.verify(err) {
		t.acts += acts
		t.latMS = append(t.latMS, ms(lat))
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.acts += u.acts
	t.latMS = append(t.latMS, u.latMS...)
}

func (t tally) verifiedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

func (t tally) result(metrics map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB is the process's high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
