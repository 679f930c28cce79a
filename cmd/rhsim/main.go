// Command rhsim runs one workload × scheme × threshold simulation and
// prints the paper's overhead and security metrics for it.
//
// Usage:
//
//	rhsim -workload mcf -scheme graphene
//	rhsim -workload S3 -scheme cbt -trh 25000
//	rhsim -workload prohit-pattern -scheme prohit -windows 1
//	rhsim -workload mix-high -scheme none          # unprotected + oracle
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"graphene/internal/dram"
	"graphene/internal/energy"
	"graphene/internal/faultinject"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/prof"
	"graphene/internal/sched"
	"graphene/internal/sim"
	"graphene/internal/stats"
	"graphene/internal/trace"
)

// options carries one simulation request.
type options struct {
	workload   string
	trace      string
	scheme     string
	profile    string
	rowpress   bool
	trh        int64
	k          int
	distance   int
	acts       int64
	windows    float64
	seed       int64
	jobs       int
	progress   bool
	timeout    time.Duration
	faults     string
	metrics    string
	events     string
	pprof      string
	cpuprofile string
	memprofile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "mcf", "workload: a profile name (mcf, milc, …), S1-10, S1-20, S2, S3, S4, prohit-pattern, mrloc-pattern, or worst")
	flag.StringVar(&o.trace, "trace", "", "replay a recorded trace file (text or binary) instead of -workload; geometry auto-sizes to the trace")
	flag.StringVar(&o.scheme, "scheme", "graphene", "scheme: "+strings.Join(sim.SchemeNames(), ", "))
	flag.StringVar(&o.profile, "profile", "ddr4", "device profile: ddr4 or ddr5 (DDR5-4800 timing with tRAS and Refresh Management)")
	flag.BoolVar(&o.rowpress, "rowpress", false, "duration-aware tracking: schemes weigh counter increments by each ACT's open-row dwell")
	flag.Int64Var(&o.trh, "trh", 50000, "Row Hammer threshold")
	flag.IntVar(&o.k, "k", 2, "Graphene reset-window divisor")
	flag.IntVar(&o.distance, "distance", 1, "protected Row Hammer distance (±n)")
	flag.Int64Var(&o.acts, "acts", 500_000, "trace length for profile workloads")
	flag.Float64Var(&o.windows, "windows", 0.5, "refresh windows sustained by attack patterns")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed")
	flag.IntVar(&o.jobs, "jobs", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
	flag.BoolVar(&o.progress, "progress", true, "live run progress on stderr")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the simulation after this long, draining in-flight runs (0 = no deadline)")
	flag.StringVar(&o.faults, "faults", "", "inject deterministic faults, e.g. memctrl.replay:error:2 (see internal/faultinject)")
	flag.StringVar(&o.metrics, "metrics", "", "write a JSON metrics snapshot to this file at exit (stderr or - for standard error)")
	flag.StringVar(&o.events, "events", "", "stream JSON-line mitigation events to this file (stderr or - for standard error; never stdout)")
	flag.StringVar(&o.pprof, "pprof", "", "serve /debug/pprof/ and live /metrics on this address (e.g. localhost:6060)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	flag.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	rec, closeObs, err := obs.NewFromPaths(o.metrics, o.events, o.pprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsim:", err)
		os.Exit(2)
	}
	if o.pprof != "" {
		dbg, err := obs.ServeDebug(o.pprof, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rhsim:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rhsim: pprof: serving /debug/pprof/ and /metrics on http://%s\n", dbg.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			dbg.Shutdown(ctx)
		}()
	}
	stopCPU, err := prof.StartCPU(o.cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsim:", err)
		os.Exit(2)
	}
	flipped, err := run(os.Stdout, rec, o)
	if perr := stopCPU(); perr != nil && err == nil {
		err = perr
	}
	if perr := prof.WriteHeap(o.memprofile); perr != nil && err == nil {
		err = perr
	}
	if cerr := closeObs(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhsim:", err)
		os.Exit(2)
	}
	if flipped {
		os.Exit(1)
	}
}

// run executes the requested simulation, prints the report to w, and
// reports whether the scheme suffered bit flips. rec (nil = disabled)
// receives metrics and mitigation events from both runs.
func run(w io.Writer, rec *obs.Recorder, o options) (flipped bool, err error) {
	fault, err := faultinject.New(o.faults)
	if err != nil {
		return false, err
	}
	fault.SetRecorder(rec)
	prof, err := dram.ProfileByName(o.profile)
	if err != nil {
		return false, err
	}
	sc := sim.Quick()
	sc.Timing = prof.Timing
	sc.Rowpress = o.rowpress
	sc.Seed = o.seed
	sc.WorkloadAccesses = o.acts
	sc.AdversarialWindows = o.windows

	var gen, baseGen trace.Generator
	geo := sc.Geometry
	if o.trace != "" {
		// A recorded trace replaces the generator on both runs, on the
		// banks it touches: a recorded attack replays on one bank, as its
		// workload does below.
		traces, eff, err := sim.LoadTraces(sc, []string{o.trace})
		if err != nil {
			return false, err
		}
		tr := traces[0]
		gen, baseGen = tr.Generator(), tr.Generator()
		geo = eff.Geometry
		o.workload = tr.Name
	} else {
		var attack bool
		gen, attack, err = sim.BuildWorkload(o.workload, sc, o.trh)
		if err != nil {
			return false, err
		}
		if attack {
			geo = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: sc.Geometry.RowsPerBank}
		}
		baseGen, _, _ = sim.BuildWorkload(o.workload, sc, o.trh)
	}
	factory, name, err := sim.BuildScheme(o.scheme, o.trh, o.k, o.distance, geo.RowsPerBank, sc)
	if err != nil {
		return false, err
	}

	// The unprotected baseline (slowdown reference) and the protected run
	// are independent simulations, so they go through the scheduler: with
	// -jobs >= 2 they replay concurrently, and the progress line on stderr
	// reports both.
	var base, res memctrl.Result
	jobs := []sched.Job{
		{Label: o.workload + "/baseline", Do: func(context.Context) error {
			r, err := memctrl.Run(memctrl.Config{Geometry: geo, Timing: sc.Timing, Obs: rec, Fault: fault}, baseGen)
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			base = r
			return nil
		}},
		{Label: o.workload + "/" + name, Do: func(context.Context) error {
			r, err := memctrl.Run(memctrl.Config{
				Geometry: geo, Timing: sc.Timing,
				Factory: factory, TRH: o.trh, OracleDistance: o.distance,
				Obs: rec, Fault: fault,
			}, gen)
			if err != nil {
				return err
			}
			res = r
			return nil
		}},
	}
	opts := sched.Options{Jobs: o.jobs, Obs: rec, Fault: fault}
	if o.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if o.progress {
		opts.Progress = sched.Reporter(os.Stderr)
	}
	if err := sched.Run(opts, jobs); err != nil {
		return false, err
	}

	fmt.Fprintf(w, "workload           %s\n", res.Workload)
	fmt.Fprintf(w, "scheme             %s\n", name)
	fmt.Fprintf(w, "TRH                %d (±%d)\n", o.trh, o.distance)
	fmt.Fprintf(w, "ACTs               %d over %v\n", res.ACTs, res.EndTime)
	fmt.Fprintf(w, "auto-refresh rows  %d (%d REF commands)\n", res.RowsAuto, res.REFCommands)
	fmt.Fprintf(w, "victim refreshes   %d commands, %d rows\n", res.NRRCommands, res.RowsVictim)
	fmt.Fprintf(w, "refresh overhead   %s\n", stats.Pct(res.RefreshOverhead()))
	fmt.Fprintf(w, "performance loss   %s\n", stats.Pct(stats.WeightedSpeedupLoss(res.SlowdownVs(base))))
	acct := energy.Accounting{
		RowsAutoRefreshed: res.RowsAuto, RowsVictim: res.RowsVictim,
		ACTs: res.ACTs, RowsPerBank: geo.RowsPerBank,
		Windows: float64(res.EndTime) / float64(sc.Timing.TREFW),
	}
	fmt.Fprintf(w, "refresh energy     %.3e nJ\n", acct.RefreshEnergy())
	if strings.HasPrefix(name, "graphene") {
		fmt.Fprintf(w, "table energy       %.3e nJ (Table V model)\n", acct.GrapheneTableEnergy())
	}
	if res.CostPerBank != (mitigation.HardwareCost{}) {
		fmt.Fprintf(w, "table cost/bank    %d entries, %d CAM + %d SRAM bits\n",
			res.CostPerBank.Entries, res.CostPerBank.CAMBits, res.CostPerBank.SRAMBits)
	}
	if res.ExtraDRAMAccesses > 0 {
		fmt.Fprintf(w, "extra DRAM traffic %d counter accesses\n", res.ExtraDRAMAccesses)
	}
	fmt.Fprintf(w, "max disturbance    %.0f / %d\n", res.MaxDisturbance, o.trh)
	for i, v := range res.TopVictims {
		fmt.Fprintf(w, "  residual victim %d: bank %d row %d (disturbance %.0f)\n", i+1, v.Bank, v.Row, v.Disturbance)
	}
	if len(res.Flips) == 0 {
		fmt.Fprintln(w, "bit flips          none")
		return false, nil
	}
	fmt.Fprintf(w, "bit flips          %d  <-- PROTECTION FAILED\n", len(res.Flips))
	for i, f := range res.Flips {
		if i == 5 {
			fmt.Fprintf(w, "  … %d more\n", len(res.Flips)-5)
			break
		}
		fmt.Fprintf(w, "  bank %d %v\n", f.Bank, f.Flip)
	}
	return true, nil
}
