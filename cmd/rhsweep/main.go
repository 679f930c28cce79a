// Command rhsweep emits CSV parameter sweeps for the design-space studies
// behind the paper's figures — handy for plotting or spreadsheet analysis.
//
// Usage:
//
//	rhsweep -sweep k          # reset-window divisor study (Fig. 6)
//	rhsweep -sweep trh        # threshold scaling study (Fig. 9(a) + §V-A)
//	rhsweep -sweep distance   # non-adjacent ±n study (§III-D)
//	rhsweep -sweep cbt        # CBT pool-size study (§II-C / §V-C)
//
// The simulation sweeps replay the full workload × scheme (× threshold)
// grid on the cell-parallel scheduler; -jobs bounds the worker pool and a
// live progress line goes to stderr (never into the stdout CSV/JSON):
//
//	rhsweep -sweep normal                      # Fig. 8(a)/(c) grid
//	rhsweep -sweep adversarial                 # Fig. 8(b) attack suite
//	rhsweep -sweep scaling-normal -trhs 50000,25000,12500   # Fig. 9(b)/(d)
//	rhsweep -sweep scaling-adversarial -jobs 4 # Fig. 9(c)
//
// Long sweeps are hardened (DESIGN.md §8): -timeout bounds the run with a
// clean abort, -retries re-runs transiently failing cells, -checkpoint
// journals completed cells so a killed sweep restarted against the same
// file re-simulates only what is missing (output stays byte-identical to
// an uninterrupted run), and -faults injects deterministic failures to
// rehearse all of the above:
//
//	rhsweep -sweep normal -checkpoint sweep.ckpt -timeout 2h
//	rhsweep -sweep normal -checkpoint sweep.ckpt   # resume after a kill
//	rhsweep -sweep normal -faults sched.job:error:5 -retries 3
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"graphene/internal/area"
	"graphene/internal/cbt"
	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/graphene"
	"graphene/internal/model"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/security"
	"graphene/internal/sim"
)

// options carries the simulation-sweep knobs shared by the -sweep modes
// that replay traces (normal, adversarial, scaling-*).
type options struct {
	trh      int64
	trhs     []int64
	traces   []string
	jobs     int
	acts     int64
	windows  float64
	seed     int64
	full     bool
	prof     dram.Profile
	rowpress bool
	progress bool
	retries  int
	rec      *obs.Recorder
	ctx      context.Context
	fault    *faultinject.Injector
	ckpt     *sched.Checkpoint
}

// scale resolves the simulation sizing: the test-friendly Quick scale with
// the trace-length knobs applied, or the paper-scale Full configuration,
// on the selected device profile's timing.
func (o options) scale() sim.Scale {
	sc := sim.Quick()
	if o.full {
		sc = sim.Full()
		sc.Geometry = o.prof.Geometry
	}
	sc.Timing = o.prof.Timing
	sc.Rowpress = o.rowpress
	sc.WorkloadAccesses = o.acts
	sc.AdversarialWindows = o.windows
	sc.Seed = o.seed
	return sc
}

// simOpts builds the scheduler options: bounded jobs plus the stderr
// progress line, kept off the stdout table, the observability recorder
// when -metrics/-events enabled it, and the hardening knobs — deadline
// (-timeout), fault plan (-faults), cell retries (-retries), and the
// checkpoint journal (-checkpoint).
func (o options) simOpts() sim.Options {
	opt := sim.Options{
		Jobs: o.jobs, Obs: o.rec, Ctx: o.ctx,
		Fault: o.fault, Checkpoint: o.ckpt,
	}
	if o.retries > 1 {
		opt.Retry = sched.RetryPolicy{MaxAttempts: o.retries, BaseDelay: 100 * time.Millisecond}
	}
	if o.progress {
		opt.Progress = sched.Reporter(os.Stderr)
	}
	return opt
}

func main() {
	var (
		sweep    = flag.String("sweep", "k", "sweep: k, trh, distance, cbt, normal, adversarial, trace, scaling-normal, scaling-adversarial")
		trh      = flag.Int64("trh", 50000, "Row Hammer threshold")
		format   = flag.String("format", "csv", "output format: csv or json")
		trhsFlag = flag.String("trhs", "50000,25000,12500", "comma-separated thresholds for the scaling sweeps")
		traces   = flag.String("traces", "", "comma-separated recorded trace files (text or binary) for -sweep trace")
		jobs     = flag.Int("jobs", 0, "concurrent simulation cells (0 = GOMAXPROCS)")
		acts     = flag.Int64("acts", 200_000, "trace length for profile workloads (simulation sweeps)")
		windows  = flag.Float64("windows", 0.25, "refresh windows sustained by attack patterns (simulation sweeps)")
		seed     = flag.Int64("seed", 1, "generator seed (simulation sweeps)")
		full     = flag.Bool("full", false, "paper-scale Table III geometry for the simulation sweeps")
		profile  = flag.String("profile", "ddr4", "device profile for the simulation sweeps: ddr4 or ddr5")
		rowpress = flag.Bool("rowpress", false, "duration-aware tracking: schemes weigh counter increments by each ACT's open-row dwell")
		progress = flag.Bool("progress", true, "live cell progress on stderr (simulation sweeps)")
		timeout  = flag.Duration("timeout", 0, "abort the sweep after this long, draining in-flight cells (0 = no deadline)")
		ckfile   = flag.String("checkpoint", "", "journal completed cells to this file and skip them on restart (simulation sweeps)")
		faults   = flag.String("faults", "", "inject deterministic faults, e.g. sched.job:error:3 (see internal/faultinject)")
		retries  = flag.Int("retries", 1, "attempts per simulation cell; >1 retries retryable failures with backoff")
		obsFlags obs.Flags
	)
	flag.StringVar(&obsFlags.Metrics, "metrics", "", "write a JSON metrics snapshot to this file at exit (stderr or - for standard error)")
	flag.StringVar(&obsFlags.Events, "events", "", "stream JSON-line mitigation events to this file (stderr or - for standard error; never stdout)")
	flag.StringVar(&obsFlags.Pprof, "pprof", "", "serve /debug/pprof/ and live /metrics on this address (e.g. localhost:6060)")
	flag.StringVar(&obsFlags.CPUProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof format)")
	flag.StringVar(&obsFlags.MemProfile, "memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	trhs, err := parseTRHs(*trhsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsweep:", err)
		os.Exit(2)
	}
	devProf, err := dram.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsweep:", err)
		os.Exit(2)
	}
	inj, err := faultinject.New(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsweep:", err)
		os.Exit(2)
	}
	// The sweep closures read o when they run, after observability starts.
	var o options
	var run func(*csv.Writer) error
	switch *sweep {
	case "k":
		run = func(w *csv.Writer) error { return sweepK(w, *trh) }
	case "trh":
		run = sweepTRH
	case "distance":
		run = func(w *csv.Writer) error { return sweepDistance(w, *trh) }
	case "cbt":
		run = func(w *csv.Writer) error { return sweepCBT(w, *trh) }
	case "normal":
		run = func(w *csv.Writer) error { return sweepNormal(w, o) }
	case "adversarial":
		run = func(w *csv.Writer) error { return sweepAdversarial(w, o) }
	case "trace":
		run = func(w *csv.Writer) error { return sweepTrace(w, o) }
	case "scaling-normal":
		run = func(w *csv.Writer) error { return sweepScalingNormal(w, o) }
	case "scaling-adversarial":
		run = func(w *csv.Writer) error { return sweepScalingAdversarial(w, o) }
	default:
		fmt.Fprintf(os.Stderr, "rhsweep: unknown sweep %q (k|trh|distance|cbt|normal|adversarial|trace|scaling-normal|scaling-adversarial)\n", *sweep)
		os.Exit(2)
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "rhsweep: unknown format %q (csv|json)\n", *format)
		os.Exit(2)
	}
	var ckpt *sched.Checkpoint
	if *ckfile != "" {
		if ckpt, err = sched.OpenCheckpoint(*ckfile); err != nil {
			fmt.Fprintln(os.Stderr, "rhsweep:", err)
			os.Exit(2)
		}
	}

	// Every flag is checked, so from here the sweep runs and stop runs
	// after it: no exit leaves an empty -metrics, -events or profile file.
	rec, addr, stop, err := obsFlags.Start()
	if err != nil {
		ckpt.Close()
		fmt.Fprintln(os.Stderr, "rhsweep:", err)
		os.Exit(2)
	}
	if addr != "" {
		fmt.Fprintf(os.Stderr, "rhsweep: pprof: serving /debug/pprof/ and /metrics on http://%s\n", addr)
	}
	inj.SetRecorder(rec)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	o = options{
		trh: *trh, trhs: trhs, traces: splitList(*traces), jobs: *jobs, acts: *acts,
		windows: *windows, seed: *seed, full: *full, prof: devProf, rowpress: *rowpress, progress: *progress,
		retries: *retries, rec: rec, ctx: ctx, fault: inj, ckpt: ckpt,
	}
	if *format == "json" {
		err = emitJSON(os.Stdout, run)
	} else {
		w := csv.NewWriter(os.Stdout)
		err = run(w)
		w.Flush()
	}
	if cerr := ckpt.Close(); err == nil {
		err = cerr
	}
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsweep:", err)
		os.Exit(1)
	}
}

// emitJSON runs the sweep into an in-memory CSV and re-encodes it as an
// array of {header: value} objects, so every sweep gets JSON for free.
// Cells are re-typed: numeric columns are emitted as JSON numbers and
// boolean columns as booleans, so downstream consumers see `"trh": 50000`,
// not `"trh": "50000"`.
func emitJSON(out io.Writer, run func(*csv.Writer) error) error {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := run(w); err != nil {
		return err
	}
	w.Flush()
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("empty sweep")
	}
	header := records[0]
	rows := make([]map[string]any, 0, len(records)-1)
	for _, rec := range records[1:] {
		m := make(map[string]any, len(header))
		for i, h := range header {
			m[h] = typedCell(rec[i])
		}
		rows = append(rows, m)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// typedCell converts a CSV cell to the value emitJSON encodes: booleans
// for true/false, nil (JSON null) for NaN and ±Inf — which have no JSON
// number representation, so a divide-by-zero metric can never corrupt the
// output — json.Number for anything that is both a parseable number and
// valid JSON number syntax (ruling out hex and leading-zero forms), and
// the original string otherwise.
func typedCell(s string) any {
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		if json.Valid([]byte(s)) {
			return json.Number(s)
		}
	}
	return s
}

func sweepK(w *csv.Writer, trh int64) error {
	if err := w.Write([]string{"k", "T", "nentry", "table_bits", "worst_extra_refresh_pct", "guarantee_margin_acts"}); err != nil {
		return err
	}
	rows, err := sim.Fig6(trh, 64*1024, dram.DDR4(), 1, 10)
	if err != nil {
		return err
	}
	for _, r := range rows {
		p, err := graphene.Config{TRH: trh, K: r.K}.Derive()
		if err != nil {
			return err
		}
		if err := w.Write([]string{
			strconv.Itoa(r.K),
			strconv.FormatInt(r.T, 10),
			strconv.Itoa(r.NEntry),
			strconv.Itoa(p.TableBits),
			fmt.Sprintf("%.4f", 100*r.WorstCaseRefreshRatio),
			fmt.Sprintf("%.0f", model.GrapheneGuaranteeMargin(trh, p, r.K)),
		}); err != nil {
			return err
		}
	}
	return nil
}

func sweepTRH(w *csv.Writer) error {
	if err := w.Write([]string{"trh", "graphene_bits_per_rank", "twice_bits_per_rank", "cbt_bits_per_rank", "para_p"}); err != nil {
		return err
	}
	sweep, err := area.Sweep(dram.Default(), dram.DDR4())
	if err != nil {
		return err
	}
	sys := security.DefaultSystem()
	for _, trh := range area.ScalingThresholds() {
		bits := map[string]int{}
		for _, e := range sweep[trh] {
			bits[e.Scheme[:3]] = e.PerRank.TotalBits()
		}
		p, err := security.MinimalParaP(trh, sys, 0.01)
		if err != nil {
			return err
		}
		if err := w.Write([]string{
			strconv.FormatInt(trh, 10),
			strconv.Itoa(bits["gra"]),
			strconv.Itoa(bits["twi"]),
			strconv.Itoa(bits["cbt"]),
			fmt.Sprintf("%.5f", p),
		}); err != nil {
			return err
		}
	}
	return nil
}

func sweepDistance(w *csv.Writer, trh int64) error {
	if err := w.Write([]string{"n", "mu_model", "amp_factor", "T", "nentry", "table_bits"}); err != nil {
		return err
	}
	models := []struct {
		name string
		fn   graphene.MuModel
	}{{"uniform", graphene.UniformMu}, {"inverse-square", graphene.InverseSquareMu}}
	for _, m := range models {
		for n := 1; n <= 8; n++ {
			p, err := graphene.Config{TRH: trh, K: 2, Distance: n, Mu: m.fn}.Derive()
			if err != nil {
				return err
			}
			if err := w.Write([]string{
				strconv.Itoa(n), m.name,
				fmt.Sprintf("%.4f", p.AmpFactor),
				strconv.FormatInt(p.T, 10),
				strconv.Itoa(p.NEntry),
				strconv.Itoa(p.TableBits),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepCBT(w *csv.Writer, trh int64) error {
	if err := w.Write([]string{"counters", "levels", "sram_bits", "min_region_rows", "trigger_rows_contiguous", "trigger_rows_remapped"}); err != nil {
		return err
	}
	for counters := 64; counters <= 4096; counters *= 2 {
		c, err := cbt.New(cbt.Config{TRH: trh, Counters: counters})
		if err != nil {
			return err
		}
		lv := c.Levels()
		contig, err := model.CBTTriggerRows(64*1024, lv-1, 1, false)
		if err != nil {
			return err
		}
		remapped, err := model.CBTTriggerRows(64*1024, lv-1, 1, true)
		if err != nil {
			return err
		}
		if err := w.Write([]string{
			strconv.Itoa(counters),
			strconv.Itoa(lv),
			strconv.Itoa(c.Cost().SRAMBits),
			strconv.Itoa(64 * 1024 >> uint(lv-1)),
			strconv.Itoa(contig),
			strconv.Itoa(remapped),
		}); err != nil {
			return err
		}
	}
	return nil
}

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseTRHs parses the -trhs comma list.
func parseTRHs(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -trhs entry %q (want positive integers)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// cellHeader is the per-cell CSV schema shared by the workload-grid sweeps.
var cellHeader = []string{"workload", "scheme", "refresh_overhead_pct", "slowdown_pct", "victim_rows", "nrr_commands", "flips"}

func writeCells(w *csv.Writer, rows []sim.Row) error {
	for _, row := range rows {
		for _, c := range row.Cells {
			if err := w.Write([]string{
				row.Workload, c.Scheme,
				fmt.Sprintf("%.4f", 100*c.RefreshOverhead),
				fmt.Sprintf("%.4f", 100*c.Slowdown),
				strconv.FormatInt(c.VictimRows, 10),
				strconv.FormatInt(c.NRRCommands, 10),
				strconv.Itoa(c.Flips),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepNormal replays the Fig. 8(a)/(c) grid: every realistic workload
// under every counter scheme at one threshold.
func sweepNormal(w *csv.Writer, o options) error {
	if err := w.Write(cellHeader); err != nil {
		return err
	}
	rows, err := sim.NormalSweepOpts(o.scale(), o.trh, o.simOpts())
	if err != nil {
		return err
	}
	return writeCells(w, rows)
}

// sweepAdversarial replays the Fig. 8(b) grid: the S1–S4 attack suite
// under every counter scheme at one threshold.
func sweepAdversarial(w *csv.Writer, o options) error {
	if err := w.Write(cellHeader); err != nil {
		return err
	}
	rows, err := sim.AdversarialSweepOpts(o.scale(), o.trh, o.simOpts())
	if err != nil {
		return err
	}
	return writeCells(w, rows)
}

// sweepTrace replays recorded trace files (-traces, text or binary) under
// every counter scheme at one threshold — the recorded-trace counterpart
// of -sweep normal. All traces share one geometry sized to fit them.
func sweepTrace(w *csv.Writer, o options) error {
	if len(o.traces) == 0 {
		return fmt.Errorf("-sweep trace needs -traces file1[,file2,...]")
	}
	if err := w.Write(cellHeader); err != nil {
		return err
	}
	rows, _, err := sim.TraceSweepOpts(o.scale(), o.trh, o.traces, o.simOpts())
	if err != nil {
		return err
	}
	return writeCells(w, rows)
}

func writeScaling(w *csv.Writer, rows []sim.ScalingRow) error {
	if err := w.Write([]string{"trh", "scheme", "refresh_overhead_pct", "slowdown_pct", "victim_rows", "flips"}); err != nil {
		return err
	}
	for _, row := range rows {
		for _, c := range row.Cells {
			if err := w.Write([]string{
				strconv.FormatInt(row.TRH, 10), c.Scheme,
				fmt.Sprintf("%.4f", 100*c.RefreshOverhead),
				fmt.Sprintf("%.4f", 100*c.Slowdown),
				strconv.FormatInt(c.VictimRows, 10),
				strconv.Itoa(c.Flips),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepScalingNormal replays the Fig. 9(b)/(d) threshold sweep: averaged
// per-scheme overheads on the representative workloads across -trhs.
func sweepScalingNormal(w *csv.Writer, o options) error {
	rows, err := sim.ScalingNormalOpts(o.scale(), o.trhs, o.simOpts())
	if err != nil {
		return err
	}
	return writeScaling(w, rows)
}

// sweepScalingAdversarial replays the Fig. 9(c) threshold sweep: averaged
// per-scheme overheads under the attack suite across -trhs.
func sweepScalingAdversarial(w *csv.Writer, o options) error {
	rows, err := sim.ScalingAdversarialOpts(o.scale(), o.trhs, o.simOpts())
	if err != nil {
		return err
	}
	return writeScaling(w, rows)
}
