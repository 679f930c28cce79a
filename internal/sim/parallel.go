package sim

import (
	"context"
	"fmt"
	"hash/fnv"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// Options configures how a sweep executes. The zero value runs every cell
// on GOMAXPROCS workers; results are identical for any Jobs value, and
// identical to the historical serial sweeps (DESIGN.md §6).
type Options struct {
	// Jobs bounds the number of concurrently simulated cells; 0 uses
	// GOMAXPROCS.
	Jobs int

	// Progress, when non-nil, observes every completed cell (the CLIs pass
	// sched.Reporter(os.Stderr)).
	Progress func(sched.Progress)

	// BaselineStats, when non-nil, receives the baseline-memoization
	// counters once the sweep finishes: Misses is the number of baseline
	// replays started (one per workload unless a failed one was redone),
	// Hits the number of cells that shared one.
	BaselineStats *sched.MemoStats

	// Obs, when non-nil, threads the observability recorder through the
	// whole sweep: the scheduler emits cell lifecycle events, and every
	// memctrl run (cells and memoized baselines alike) reports NRR,
	// scheme-internal, and replay-progress events into it.
	Obs *obs.Recorder

	// Ctx, when non-nil, bounds the whole sweep: cancellation or an
	// expired deadline aborts the pool — in-flight cells drain, queued
	// cells are skipped, and the sweep returns the context's error.
	Ctx context.Context

	// Retry re-runs failed cells per sched.RetryPolicy (the zero value
	// never retries). Every attempt rebuilds its cell from the row's
	// source and the cell's seed, and a failed baseline is recomputed by
	// the next cell that asks for it, so a sweep whose failures were all
	// retried away is byte-identical to one that never failed.
	Retry sched.RetryPolicy

	// Fault, when non-nil, arms deterministic fault points in the
	// scheduler workers and in every memctrl replay (cells and baselines
	// alike). See internal/faultinject for the spec grammar.
	Fault *faultinject.Injector

	// Checkpoint, when non-nil, journals each completed cell and restores
	// journaled cells on a restarted sweep instead of re-simulating them,
	// reassembling output identical to an uninterrupted run. Keys include
	// a hash of the sweep's Scale, so a journal written at one
	// configuration is ignored by any other.
	Checkpoint *sched.Checkpoint
}

// Source is one grid row's workload: its name and a replay of its access
// stream under a memctrl Config. Every call replays the stream from its
// start, so the sweep calls it for the baseline and for every attempt of
// every cell, and no attempt ever resumes a stream another one half
// consumed.
type Source struct {
	Name   string
	Replay func(memctrl.Config) (memctrl.Result, error)
}

// profileSources turns realistic workload profiles into grid rows.
func profileSources(sc Scale, profiles []workload.Profile) []Source {
	srcs := make([]Source, len(profiles))
	for i, prof := range profiles {
		srcs[i] = Source{Name: prof.Name, Replay: func(cfg memctrl.Config) (memctrl.Result, error) {
			gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
			if err != nil {
				return memctrl.Result{}, err
			}
			return memctrl.Run(cfg, gen)
		}}
	}
	return srcs
}

// patternSources turns attack-pattern constructors into grid rows.
func patternSources(pats []func() trace.Generator) []Source {
	srcs := make([]Source, len(pats))
	for i, mk := range pats {
		srcs[i] = Source{Name: mk().Name(), Replay: func(cfg memctrl.Config) (memctrl.Result, error) {
			return memctrl.Run(cfg, mk())
		}}
	}
	return srcs
}

// sweepPlan flattens a sweep into independent cell jobs — one protected
// memctrl run per (source, scheme, threshold) — sharing one memoized
// unprotected baseline per source. Cells write into pre-assembled row
// slots, so output order is fixed at submission time regardless of how
// execution interleaves.
type sweepPlan struct {
	sc    Scale
	obs   *obs.Recorder
	fault *faultinject.Injector
	ckpt  *sched.Checkpoint
	jobs  []sched.Job
	memo  sched.Memo[string, memctrl.Result]
}

func newPlan(sc Scale, opt Options) *sweepPlan {
	return &sweepPlan{sc: sc, obs: opt.Obs, fault: opt.Fault, ckpt: opt.Checkpoint}
}

// cellKey names one cell in a checkpoint journal: a hash of the plan's
// full Scale plus the cell label, so a journal written at one
// configuration (geometry, timing, trace length, seed) can never leak
// stale results into a sweep at another.
func (p *sweepPlan) cellKey(label string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p.sc)
	return fmt.Sprintf("%016x|%s", h.Sum64(), label)
}

// replay replays src on the plan's device; a nil factory replays
// unprotected.
func (p *sweepPlan) replay(src Source, f mitigation.Factory, trh int64) (memctrl.Result, error) {
	return src.Replay(memctrl.Config{
		Geometry: p.sc.Geometry, Timing: p.sc.Timing,
		Factory: f, TRH: trh, Obs: p.obs, Fault: p.fault,
	})
}

// baseline returns src's memoized unprotected run: replayed by the first
// cell that asks and shared by every later one, across thresholds too.
func (p *sweepPlan) baseline(src Source) (memctrl.Result, error) {
	return p.memo.Do(src.Name, func() (memctrl.Result, error) {
		res, err := p.replay(src, nil, 0)
		if err != nil {
			return memctrl.Result{}, fmt.Errorf("sim: baseline %s: %w", src.Name, err)
		}
		return res, nil
	})
}

// grid registers one threshold's source × scheme grid on the plan and
// returns its row slots. Cell (wi, si) builds its engines from seed
// sc.Seed + wi×banks: the engines one shared seed-counting factory (PARA
// and the other probabilistic schemes count up from their seed) hands
// that cell in a serial row-major walk, where every cell takes one engine
// per bank.
func (p *sweepPlan) grid(trh int64, srcs []Source, schemes []Spec) []Row {
	banks := int64(p.sc.Geometry.Banks())
	rows := make([]Row, len(srcs))
	for wi, src := range srcs {
		rows[wi] = Row{Workload: src.Name, Cells: make([]Cell, len(schemes))}
		for si, spec := range schemes {
			p.addCell(src, spec, p.sc.Seed+int64(wi)*banks, trh, &rows[wi].Cells[si])
		}
	}
	return rows
}

// addCell schedules one protected run of src under spec, whose engines
// start at seed; the measured cell lands in *slot. A cell the checkpoint
// journal already holds is restored without a replay.
func (p *sweepPlan) addCell(src Source, spec Spec, seed, trh int64, slot *Cell) {
	label := fmt.Sprintf("%s/%s trh=%d", src.Name, spec.Name, trh)
	key := p.cellKey(label)
	var prev Cell
	if p.ckpt.Lookup(key, &prev) {
		p.jobs = append(p.jobs, sched.Job{Label: label, Do: func(context.Context) error {
			*slot = prev
			p.obs.Counter("cells_restored_total").Inc()
			return nil
		}})
		return
	}
	p.jobs = append(p.jobs, sched.Job{Label: label, Do: func(context.Context) error {
		b, err := p.baseline(src)
		if err != nil {
			return err
		}
		res, err := p.replay(src, spec.factory(seed), trh)
		if err != nil {
			return fmt.Errorf("sim: %s/%s: %w", src.Name, spec.Name, err)
		}
		*slot = Cell{
			Scheme:          spec.Name,
			RefreshOverhead: res.RefreshOverhead(),
			Slowdown:        res.SlowdownVs(b),
			VictimRows:      res.RowsVictim,
			NRRCommands:     res.NRRCommands,
			Flips:           len(res.Flips),
		}
		if err := p.ckpt.Record(key, *slot); err != nil {
			return fmt.Errorf("sim: %s: %w", label, err)
		}
		return nil
	}})
}

// run executes the accumulated cells on the pool.
func (p *sweepPlan) run(opt Options) error {
	err := sched.Run(sched.Options{
		Jobs: opt.Jobs, Ctx: opt.Ctx, Progress: opt.Progress,
		Retry: opt.Retry, Fault: opt.Fault, Obs: opt.Obs,
	}, p.jobs)
	if opt.BaselineStats != nil {
		*opt.BaselineStats = p.memo.Stats()
	}
	return err
}

// sweep measures one threshold's srcs × schemes grid on the pool.
func sweep(sc Scale, trh int64, srcs []Source, schemes []Spec, opt Options) ([]Row, error) {
	plan := newPlan(sc, opt)
	rows := plan.grid(trh, srcs, schemes)
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	return rows, nil
}

// scaling measures the counter line-up over srcs at every threshold as
// one pool run, each source's baseline replayed once and shared across
// thresholds, and averages each threshold's rows.
func scaling(sc Scale, trhs []int64, srcs []Source, opt Options) ([]ScalingRow, error) {
	plan := newPlan(sc, opt)
	perTRH := make([][]Row, len(trhs))
	for ti, trh := range trhs {
		schemes, err := CounterSchemes(trh, sc)
		if err != nil {
			return nil, err
		}
		perTRH[ti] = plan.grid(trh, srcs, schemes)
	}
	if err := plan.run(opt); err != nil {
		return nil, err
	}
	out := make([]ScalingRow, len(trhs))
	for ti, trh := range trhs {
		out[ti] = average(trh, perTRH[ti])
	}
	return out, nil
}

// SweepProfilesOpts measures an explicit workload × scheme matrix: each
// profile runs once unprotected (the slowdown baseline, shared by every
// scheme via memoization) and once per scheme with the oracle enabled.
// Cells run on the sched pool under opt.
func SweepProfilesOpts(sc Scale, trh int64, profiles []workload.Profile, schemes []Spec, opt Options) ([]Row, error) {
	return sweep(sc, trh, profileSources(sc, profiles), schemes, opt)
}

// NormalSweepOpts measures every realistic workload under every counter
// scheme: the data behind Fig. 8(a) (refresh-energy overhead) and Fig.
// 8(c) (performance loss). The oracle runs throughout; sound schemes must
// report zero flips. Cells run on the sched pool under opt.
func NormalSweepOpts(sc Scale, trh int64, opt Options) ([]Row, error) {
	schemes, err := CounterSchemes(trh, sc)
	if err != nil {
		return nil, err
	}
	return SweepProfilesOpts(sc, trh, workload.Profiles(), schemes, opt)
}

// ScalingNormalOpts measures the Fig. 9(b)/(d) sweep: average
// refresh-energy overhead and performance loss on normal workloads across
// thresholds. The whole (threshold × workload × scheme) grid is flattened
// into one pool run under opt, and each workload's unprotected baseline is
// replayed once and shared across every threshold.
func ScalingNormalOpts(sc Scale, trhs []int64, opt Options) ([]ScalingRow, error) {
	return scaling(sc, trhs, profileSources(sc, ScalingWorkloads()), opt)
}

// singleBank shrinks sc to the single-bank geometry the adversarial
// patterns saturate (the refresh-overhead ratio is bank-local, as in the
// paper's accounting).
func singleBank(sc Scale) Scale {
	oneBank := sc
	oneBank.Geometry = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: sc.Geometry.RowsPerBank}
	return oneBank
}

// AdversarialSweepOpts measures the counter schemes and PARA under the
// attack suite: the data behind Fig. 8(b). Attacks run on a single bank
// (the refresh-overhead ratio is bank-local, as in the paper's
// accounting). Cells run on the sched pool under opt.
func AdversarialSweepOpts(sc Scale, trh int64, opt Options) ([]Row, error) {
	oneBank := singleBank(sc)
	schemes, err := CounterSchemes(trh, oneBank)
	if err != nil {
		return nil, err
	}
	return sweep(oneBank, trh, patternSources(AdversarialPatterns(oneBank)), schemes, opt)
}

// ScalingAdversarialOpts measures the Fig. 9(c) sweep: average
// refresh-energy overhead under the attack suite across thresholds, as one
// pool run under opt over the whole (threshold × pattern × scheme) grid,
// with each pattern's unprotected baseline replayed once and shared across
// every threshold.
func ScalingAdversarialOpts(sc Scale, trhs []int64, opt Options) ([]ScalingRow, error) {
	oneBank := singleBank(sc)
	return scaling(oneBank, trhs, patternSources(AdversarialPatterns(oneBank)), opt)
}
