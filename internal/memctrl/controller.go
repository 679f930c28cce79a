// Package memctrl is the trace-driven memory-system simulator: it replays
// an activation stream against the DRAM device model, drives one protection
// engine per bank, schedules the periodic auto-refresh routine, applies
// victim refreshes, and feeds every event to the ground-truth Row Hammer
// oracle.
//
// Substitution note (DESIGN.md §3): the paper uses McSimA+ cycle-level CPU
// simulation; here, workload timing enters through per-access think-time
// gaps and all protection overhead manifests — exactly as in the paper's
// accounting (§V-B) — as bank-busy time: tRC per victim row refreshed plus
// tRP at the precharge, and tRFC per REF. Performance overhead is the
// relative increase in stream completion time versus an unprotected run of
// the same trace.
package memctrl

import (
	"fmt"
	"sort"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/hammer"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/remap"
	"graphene/internal/trace"
)

// Config assembles one simulation.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing

	// Factory builds the per-bank protection engine; nil simulates an
	// unprotected baseline.
	Factory mitigation.Factory

	// TRH enables the ground-truth oracle when positive. OracleDistance
	// sets its disturbance reach (default ±1); every row within it is
	// disturbed equally (the uniform μ model).
	TRH            int64
	OracleDistance int

	// Remap is the device's logical→physical row mapping (nil = identity).
	// Protection schemes observe logical addresses; disturbance physics,
	// auto-refresh, and NRR neighbor resolution act on physical rows
	// (§II-C, §IV-A).
	Remap remap.Remapper

	// Obs, when non-nil, enables the observability layer: the controller
	// reports every victim refresh it applies for a bank's mitigator (nrr
	// events and the counters matching Result's totals), engines that
	// implement obs.Instrumentable additionally report scheme-internal
	// events, and the replay emits per-bank progress and validate-failure
	// events. The nil default costs one nil check per mitigator call and
	// per block, never per ACT (DESIGN.md §7), and leaves Results
	// byte-identical.
	Obs *obs.Recorder

	// Fault, when non-nil, arms the replay's fault-injection points
	// (DESIGN.md §8): faultinject.SitePartition in the block router at
	// every routed block — on Run and RunBlocks alike, including a
	// generator run's final partial blocks — and faultinject.SiteReplay in
	// each bank goroutine at every block drain. Nil (the default) costs one
	// nil check per block, never per ACT.
	Fault *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Geometry == (dram.Geometry{}) {
		c.Geometry = dram.Default()
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	if c.OracleDistance == 0 {
		c.OracleDistance = 1
	}
	return c
}

// BankFlip ties an oracle flip to the bank it occurred in.
type BankFlip struct {
	Bank int
	hammer.Flip
}

// BankVictim ties a residual-disturbance report to its bank.
type BankVictim struct {
	Bank int
	hammer.VictimReport
}

// Result summarizes one simulation run.
type Result struct {
	Workload string
	Scheme   string

	EndTime dram.Time // completion time of the whole stream (max over banks)
	ACTs    int64

	REFCommands int64 // auto-refresh commands issued
	RowsAuto    int64 // rows refreshed by the normal routine
	NRRCommands int64 // victim-refresh commands issued
	RowsVictim  int64 // rows refreshed by victim refreshes

	// RFMCommands counts DDR5 Refresh Management commands (one per RAAIMT
	// ACTs per bank). Omitted from JSON when zero, so DDR4 results
	// serialize exactly as before the field existed.
	RFMCommands int64 `json:",omitempty"`

	Flips          []BankFlip // ground-truth bit flips (empty for sound schemes)
	MaxDisturbance float64    // worst victim accumulator at the horizon

	// TopVictims lists the most-disturbed (bank, row) accumulators at the
	// horizon, highest first — the residual pressure the attack left
	// behind after the scheme's refreshes.
	TopVictims []BankVictim

	// ExtraDRAMAccesses counts additional DRAM traffic some schemes cause
	// (CRA counter-cache misses). Each access is charged to the bank
	// timeline as one column-access occupancy (tCL), so it also shows up
	// in EndTime.
	ExtraDRAMAccesses int64

	CostPerBank mitigation.HardwareCost

	// PerBank breaks the aggregate counters down by flat bank index.
	PerBank []BankSummary
}

// BankSummary is one bank's share of the run.
type BankSummary struct {
	Bank        int
	ACTs        int64
	RowsAuto    int64
	NRRCommands int64
	RowsVictim  int64
	RFMCommands int64 `json:",omitempty"`
	BusyTime    dram.Time
}

// RefreshOverhead is victim rows over normally refreshed rows — the
// paper's refresh-energy overhead metric (Fig. 8(a)/(b)).
func (r Result) RefreshOverhead() float64 {
	if r.RowsAuto == 0 {
		return 0
	}
	return float64(r.RowsVictim) / float64(r.RowsAuto)
}

// SlowdownVs returns the relative completion-time increase over a baseline
// run of the same trace (Fig. 8(c)).
func (r Result) SlowdownVs(baseline Result) float64 {
	if baseline.EndTime == 0 {
		return 0
	}
	return float64(r.EndTime-baseline.EndTime) / float64(baseline.EndTime)
}

// bankState bundles the per-bank simulation machinery.
type bankState struct {
	bank    *dram.Bank
	mit     mitigation.Mitigator
	oracle  *hammer.Oracle
	now     dram.Time
	nextREF dram.Time

	// extraFn reads the scheme's cumulative extra-DRAM-access counter
	// (CRA's counter-cache traffic); nil for self-contained schemes.
	extraFn   func() int64
	lastExtra int64

	remap remap.Remapper // nil = identity

	// obs reports the bank's mitigator calls and replay progress; nil
	// when Config.Obs is.
	obs *bankObs

	// Recycled scratch buffers (API v2, DESIGN.md §9): the steady-state
	// replay loop hands vrScratch to the mitigator's Append methods,
	// flipStage to the oracle, remapScratch to the explicit-row remap
	// translation, and physScratch to the remapped run the batch core
	// hands the oracle, so after warmup no per-ACT heap allocation remains
	// (TestReplayHotPathZeroAlloc and TestReplayBatchZeroAlloc pin this
	// with testing.AllocsPerRun).
	vrScratch    []mitigation.VictimRefresh
	flipStage    []hammer.Flip
	remapScratch []int
	physScratch  []int32

	// runTimes holds the precomputed ACT start times of the current
	// event-horizon run (batch.go, DESIGN.md §11); lastRun is how many
	// of them the last protected run consumed, which sizes the next walk
	// for a scheme with extra traffic.
	runTimes []dram.Time
	lastRun  int

	// Batch-of-one scratch: the scalar replayOne routes a dwell-carrying
	// ACT through the mitigator's batch entry point (the only one that
	// accepts a dwell column) without allocating.
	oneRow   [1]int32
	oneNow   [1]dram.Time
	oneDwell [1]dram.Time
}

// phys translates a logical row to the physical word line.
func (s *bankState) phys(row int) int {
	if s.remap == nil {
		return row
	}
	return s.remap.ToPhysical(row)
}

// Run replays gen to completion under cfg. The generator enters the same
// block router as RunBlocks' decoded traces, cut into per-bank column
// blocks (stream.go), so memory stays O(banks × block) regardless of trace
// length.
func Run(cfg Config, gen trace.Generator) (Result, error) {
	return run(cfg, gen.Name(), func(cfg Config, states []*bankState) ([]bankOut, error) {
		return replayBlocks(cfg, newGenSource(cfg, gen), states)
	})
}

// runBuffered replays through the original O(total ACTs)-memory path that
// materialized the whole stream into per-bank slices before replaying each
// access through replayOne. The differential tests keep it as the oracle
// for the block router and the batch core.
func runBuffered(cfg Config, gen trace.Generator) (Result, error) {
	return run(cfg, gen.Name(), func(cfg Config, states []*bankState) ([]bankOut, error) {
		return replayBuffered(cfg, gen, states)
	})
}

// replayFunc partitions the trace across the per-bank goroutines and
// replays it, returning one bankOut per bank. Implementations must
// preserve the per-bank access order and must not touch states after
// returning: the block router (blocks.go) behind Run and RunBlocks, and
// the buffered reference (buffered.go).
type replayFunc func(cfg Config, states []*bankState) ([]bankOut, error)

// bankOut is one bank goroutine's share of the run.
type bankOut struct {
	acts  int64
	flips []BankFlip
	err   error
}

// validateAccess bounds-checks one access against the configured geometry.
// A rejected access is also reported as a validate_fail event: a sweep
// watching the event stream sees the failure the moment ingest hits it,
// not when the run's error finally surfaces.
func validateAccess(cfg Config, nbanks int, a trace.Access) error {
	err := func() error {
		if a.Bank < 0 || a.Bank >= nbanks {
			return fmt.Errorf("memctrl: access to bank %d out of range [0,%d)", a.Bank, nbanks)
		}
		if a.Row < 0 || a.Row >= cfg.Geometry.RowsPerBank {
			return fmt.Errorf("memctrl: access to row %d out of range [0,%d)", a.Row, cfg.Geometry.RowsPerBank)
		}
		return nil
	}()
	if err != nil {
		cfg.Obs.Counter("validate_failures_total").Inc()
		cfg.Obs.Emit(obs.Event{Kind: obs.KindValidateFail, Bank: a.Bank, Row: a.Row, Detail: err.Error()})
	}
	return err
}

func run(cfg Config, workload string, replay replayFunc) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Geometry.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return Result{}, err
	}

	// Rows replay as int32 columns — decoded blocks, the batch core's runs
	// and the oracle's — which address at most trace.MaxRow+1 rows.
	if cfg.Geometry.RowsPerBank > trace.MaxRow+1 {
		return Result{}, fmt.Errorf("memctrl: %d rows per bank exceeds limit %d", cfg.Geometry.RowsPerBank, trace.MaxRow+1)
	}
	if cfg.Remap != nil && cfg.Remap.Rows() != cfg.Geometry.RowsPerBank {
		return Result{}, fmt.Errorf("memctrl: remapper covers %d rows, bank has %d", cfg.Remap.Rows(), cfg.Geometry.RowsPerBank)
	}

	nbanks := cfg.Geometry.Banks()
	states := make([]*bankState, nbanks)
	for i := range states {
		b, err := dram.NewBank(cfg.Timing, cfg.Geometry.RowsPerBank)
		if err != nil {
			return Result{}, err
		}
		s := &bankState{bank: b, nextREF: cfg.Timing.TREFI, remap: cfg.Remap}
		if cfg.Factory != nil {
			m, err := cfg.Factory()
			if err != nil {
				return Result{}, err
			}
			if x, ok := m.(interface{ ExtraDRAMAccesses() int64 }); ok {
				s.extraFn = x.ExtraDRAMAccesses
			}
			s.mit = m
		}
		s.obs = newBankObs(cfg.Obs, i, cfg.Geometry.RowsPerBank, s.mit)
		if cfg.TRH > 0 {
			if s.oracle, err = hammer.NewOracle(cfg.Geometry.RowsPerBank, cfg.TRH, cfg.OracleDistance, nil); err != nil {
				return Result{}, err
			}
			// Duration-weighted disturbance (RowPress): dwell normalizes
			// against the device's minimum open-row time. Dwell-less
			// accesses weigh exactly 1, so legacy streams are unchanged.
			s.oracle.SetNRAS(cfg.Timing.NRAS())
		}
		states[i] = s
	}

	res := Result{Workload: workload, Scheme: "none"}
	if cfg.Factory != nil {
		res.Scheme = states[0].mit.Name()
		res.CostPerBank = states[0].mit.Cost()
	}

	// Banks are timing-independent in this model, so their timelines replay
	// concurrently; the replay strategy partitions the stream (preserving
	// per-bank order) and results merge deterministically in bank order
	// below.
	outs, err := replay(cfg, states)
	if err != nil {
		return Result{}, err
	}
	for bi := range outs {
		if outs[bi].err != nil {
			return Result{}, outs[bi].err
		}
		res.ACTs += outs[bi].acts
		res.Flips = append(res.Flips, outs[bi].flips...)
	}

	// Advance every bank to the global horizon so refresh-energy
	// accounting covers the same elapsed time for all banks.
	var horizon dram.Time
	for _, s := range states {
		if s.bank.BusyUntil() > horizon {
			horizon = s.bank.BusyUntil()
		}
		if s.now > horizon {
			horizon = s.now
		}
	}
	res.EndTime = horizon
	for _, s := range states {
		s.now = horizon
		if err := s.catchUpREF(); err != nil {
			return Result{}, err
		}
	}

	for bi, s := range states {
		st := s.bank.Stats()
		res.REFCommands += st.REFCommands
		res.RowsAuto += st.RowsAutoRefresh
		res.NRRCommands += st.NRRCommands
		res.RowsVictim += st.RowsNRR
		res.RFMCommands += st.RFMCommands
		res.PerBank = append(res.PerBank, BankSummary{
			Bank:        bi,
			ACTs:        st.ACTs,
			RowsAuto:    st.RowsAutoRefresh,
			NRRCommands: st.NRRCommands,
			RowsVictim:  st.RowsNRR,
			RFMCommands: st.RFMCommands,
			BusyTime:    st.BusyTime,
		})
		if s.oracle != nil {
			// TopVictims leads with the bank's largest accumulator, so one
			// scan of the oracle yields both fields.
			for _, v := range s.oracle.TopVictims(3) {
				res.MaxDisturbance = max(res.MaxDisturbance, v.Disturbance)
				res.TopVictims = append(res.TopVictims, BankVictim{Bank: bi, VictimReport: v})
			}
			// That was the oracle's last read: its chunks go to the pool
			// the next replay's oracles draw from.
			s.oracle.Release()
		}
		if s.extraFn != nil {
			res.ExtraDRAMAccesses += s.extraFn()
		}
	}
	sort.Slice(res.TopVictims, func(i, j int) bool {
		return res.TopVictims[i].Disturbance > res.TopVictims[j].Disturbance
	})
	if len(res.TopVictims) > 3 {
		res.TopVictims = res.TopVictims[:3]
	}
	return res, nil
}

// replayOne advances one bank's timeline by a single access: the think-time
// gap, any auto-refreshes that came due, the activation itself, oracle
// disturbance, and the scheme's victim refreshes plus extra-traffic stall.
// Counters and flips accumulate into out.
func (s *bankState) replayOne(a trace.Access, bi int, out *bankOut) error {
	s.now += a.Gap
	if err := s.catchUpREF(); err != nil {
		return err
	}

	start := s.now
	if bu := s.bank.BusyUntil(); bu > start {
		start = bu
	}
	physRow := s.phys(a.Row)
	done, err := s.bank.ActivateOpen(physRow, s.now, a.Dwell)
	if err != nil {
		return err
	}
	out.acts++
	if done, err = s.rfmIfDue(done); err != nil {
		return err
	}

	if s.oracle != nil {
		// The oracle lives in physical space: disturbance follows
		// word-line adjacency, not controller addressing. Flips stage
		// through the recycled buffer; out.flips only grows when a scheme
		// actually failed.
		s.flipStage = s.oracle.AppendActivateOpen(s.flipStage[:0], physRow, start, a.Dwell)
		for _, f := range s.flipStage {
			out.flips = append(out.flips, BankFlip{Bank: bi, Flip: f})
		}
	}
	if s.mit != nil {
		if a.Dwell != 0 {
			// Only the batch entry point carries a dwell column; a
			// dwell-holding ACT goes through it as a batch of one.
			s.oneRow[0] = int32(a.Row)
			s.oneNow[0] = start
			s.oneDwell[0] = a.Dwell
			s.vrScratch, _ = s.mit.AppendOnActivateBatch(s.vrScratch[:0], s.oneRow[:], s.oneNow[:], s.oneDwell[:])
		} else {
			s.vrScratch = s.mit.AppendOnActivate(s.vrScratch[:0], a.Row, start)
		}
		if s.obs != nil {
			s.obs.report(s.vrScratch, 1, start)
		}
		if err := s.apply(s.vrScratch, done); err != nil {
			return err
		}
		if err := s.chargeExtra(done); err != nil {
			return err
		}
	}
	s.now = done
	return nil
}

// chargeExtra charges the scheme's extra DRAM traffic since the last
// charge (CRA's counter reads and writebacks) as bank occupancy at `at`,
// one column access (tCL) per transfer. replayOne and replayRun call it
// right after applying refreshes; replayRun can because a scheme with
// extra traffic stops its batch after the ACT that caused it.
func (s *bankState) chargeExtra(at dram.Time) error {
	if s.extraFn == nil {
		return nil
	}
	if delta := s.extraFn() - s.lastExtra; delta > 0 {
		s.lastExtra += delta
		if _, err := s.bank.Stall(at, dram.Time(delta)*s.bank.Timing().TCL); err != nil {
			return err
		}
	}
	return nil
}

// rfmIfDue is DDR5 Refresh Management: when the ACT completing at done
// brought the RAA counter to RAAIMT, the controller owes the device an RFM
// command before the stream continues, and before that ACT's victim
// refreshes apply. It returns when the bank is free again — done itself
// when no RFM is due. Pure occupancy — the in-DRAM tracker the command
// feeds is opaque, so no charge restoration is modeled.
func (s *bankState) rfmIfDue(done dram.Time) (dram.Time, error) {
	if !s.bank.RFMDue() {
		return done, nil
	}
	return s.bank.RefreshManagement(done)
}

// catchUpREF issues every auto-refresh command due at or before s.now,
// interleaving the mitigator's per-tREFI tick and any victim refreshes it
// requests. A tick that asks for out-of-range rows (a buggy scheme) is a
// real error and propagates.
func (s *bankState) catchUpREF() error {
	for s.nextREF <= s.now {
		done, rows := s.bank.AutoRefresh(s.nextREF)
		if s.oracle != nil {
			for _, r := range rows {
				s.oracle.RefreshRowAt(r, s.nextREF)
			}
		}
		if s.mit != nil {
			s.vrScratch = s.mit.AppendTick(s.vrScratch[:0], s.nextREF)
			if s.obs != nil {
				s.obs.report(s.vrScratch, 0, s.nextREF)
			}
			if err := s.apply(s.vrScratch, done); err != nil {
				return err
			}
		}
		s.nextREF += s.bank.Timing().TREFI
	}
	return nil
}

// apply executes the requested victim refreshes at or after `at`. Aggressor
// refreshes (NRR, §IV-A) resolve neighbors inside the device, in physical
// space — they stay correct under remapping. Explicit row lists are
// controller-side logical addresses: the device refreshes exactly their
// physical images, so a scheme that assumed logical contiguity misses the
// true physical victims (the §II-C CBT hazard).
func (s *bankState) apply(vrs []mitigation.VictimRefresh, at dram.Time) error {
	for _, vr := range vrs {
		var rows []int
		var err error
		if vr.Explicit() {
			rows = vr.Rows
			if s.remap != nil {
				s.remapScratch = s.remapScratch[:0]
				for _, r := range vr.Rows {
					s.remapScratch = append(s.remapScratch, s.remap.ToPhysical(r))
				}
				rows = s.remapScratch
			}
			_, err = s.bank.RefreshRows(rows, at)
		} else {
			_, rows, err = s.bank.NearbyRowRefresh(s.phys(vr.Aggressor), vr.Distance, at)
		}
		if err != nil {
			return err
		}
		if s.oracle != nil {
			for _, r := range rows {
				s.oracle.RefreshRowAt(r, at)
			}
		}
	}
	return nil
}
