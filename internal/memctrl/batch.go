package memctrl

import (
	"context"
	"fmt"
	"io"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/trace"
)

// maxBatchRun caps how many ACTs one event-horizon run may cover, bounding
// the per-bank start-time scratch. The cap is far above the typical
// refresh horizon (a tREFI holds on the order of a hundred back-to-back
// row cycles), so it only binds on traces whose gaps outrun the refresh
// clock — and there the loop simply re-enters with the next slice.
const maxBatchRun = 4096

// replayRun advances one bank through a columnar run of ACTs — the batched
// replay core (DESIGN.md §11). Instead of the scalar path's per-ACT
// gap/refresh-check/activate/observe/apply sequence, it:
//
//  1. walks the occupancy recurrence forward to the event horizon — the
//     first ACT whose arrival crosses the next auto-refresh boundary, the
//     ACT that brings the DDR5 RAA counter to RAAIMT, or the run cap —
//     precomputing every ACT start time in the run, with no per-ACT branch
//     on the refresh clock or the RAA counter;
//  2. hands the whole run to the mitigator's AppendOnActivateBatch, which
//     consumes ACTs until its first append (the batch contract: an applied
//     refresh changes the bank timeline, so later precomputed times would
//     go stale);
//  3. feeds the consumed prefix to the oracle, accounts the bank's ACT
//     run in one ActivateRun call, issues the RFM command when the prefix
//     ended on the RAAIMT-th ACT, and applies any refreshes at the
//     resulting completion time — exactly when the scalar path would have.
//
// The RAA counter moves only with the ACT count, so the RFM horizon is
// known before the walk starts (dram.Bank.ACTsToRFM) and needs no second
// timing recurrence: it just caps the run.
//
// An ACT that crosses a refresh boundary replays through the scalar
// replayOne, which runs catchUpREF and everything else; runs resume after
// it. Every counter, event, flip, and timestamp is byte-identical to
// replaying the same ACTs through replayOne (the golden differential
// suite and TestStreamingMatchesBuffered pin this), and the steady state
// allocates nothing (TestReplayBatchZeroAlloc).
func (s *bankState) replayRun(rows []int32, gaps, dwells []dram.Time, bi int, out *bankOut) error {
	timing := s.bank.Timing()
	trc := timing.TRC
	i, n := 0, len(rows)
	// With no mitigator, oracle, or remap, nothing consumes per-ACT start
	// times, so the horizon walk collapses to the bare occupancy recurrence
	// with no scratch writes — the trigger-light floor the bench-replay gate
	// asserts on. Rows were range-validated upstream (the streaming
	// partitioner or the columnar block router), matching the protected
	// path, which also defers the range check to its oracle/remap loop.
	// A dwell column disqualifies the collapse: per-ACT occupancy varies.
	pureTiming := s.mit == nil && s.oracle == nil && s.remap == nil && dwells == nil
	for i < n {
		if pureTiming {
			horizon := s.nextREF
			arr := s.now + gaps[i]
			if arr >= horizon {
				// ACT i crosses the refresh boundary: scalar replayOne runs
				// catchUpREF and the activation in the canonical order.
				if err := s.replayOne(trace.Access{Bank: bi, Row: int(rows[i]), Gap: gaps[i]}, bi, out); err != nil {
					return err
				}
				i++
				continue
			}
			// First ACT of the run: completion time may trail busyUntil
			// (a just-applied refresh occupies the bank past s.now), so
			// take the full max once. After it, arrival = busy + gap, so
			// each step is busy += max(gap, 0) + tRC.
			busy := s.bank.BusyUntil()
			if busy < arr {
				busy = arr
			}
			busy += trc
			k := 1
			lim := i + min(maxBatchRun, s.bank.ACTsToRFM())
			if lim > n {
				lim = n
			}
			for _, gap := range gaps[i+1 : lim] {
				arr := busy + gap
				if arr >= horizon {
					break
				}
				if gap > 0 {
					busy = arr
				}
				busy += trc
				k++
			}
			s.bank.ActivateRun(k, busy)
			out.acts += int64(k)
			end, err := s.rfmIfDue(busy)
			if err != nil {
				return err
			}
			s.now = end
			i += k
			continue
		}
		// Event horizon: precompute start times through the occupancy
		// recurrence until an arrival reaches the refresh boundary. Within
		// a refresh-free run busyUntil never exceeds an arrival after the
		// first ACT (gaps are non-negative and s.now tracks completion),
		// but the max is kept unconditionally so a generator-driven
		// negative gap still replays byte-identically to the scalar path.
		busy := s.bank.BusyUntil()
		now := s.now
		horizon := s.nextREF
		runCap := min(maxBatchRun, s.bank.ACTsToRFM())
		times := s.runTimes[:0]
		j := i
		if dwells == nil {
			for j < n && j-i < runCap {
				arr := now + gaps[j]
				if arr >= horizon {
					break
				}
				start := arr
				if busy > start {
					start = busy
				}
				busy = start + trc
				now = busy
				times = append(times, start)
				j++
			}
		} else {
			// The dwell leg is the same recurrence with ActCycle inlined
			// (max(tRC, dwell+tRP)) and tRP hoisted, so carrying the column
			// prices only the extra load and compare per ACT.
			trp := timing.TRP
			for j < n && j-i < runCap {
				arr := now + gaps[j]
				if arr >= horizon {
					break
				}
				start := arr
				if busy > start {
					start = busy
				}
				cyc := dwells[j] + trp
				if cyc < trc {
					cyc = trc
				}
				busy = start + cyc
				now = busy
				times = append(times, start)
				j++
			}
		}
		s.runTimes = times
		if j == i {
			// ACT i crosses the refresh boundary: replay it through the
			// scalar path, which interleaves catchUpREF, the tick, and the
			// activation in the canonical order. Rare — once per tREFI.
			a := trace.Access{Bank: bi, Row: int(rows[i]), Gap: gaps[i]}
			if dwells != nil {
				a.Dwell = dwells[i]
			}
			if err := s.replayOne(a, bi, out); err != nil {
				return err
			}
			i++
			continue
		}

		consumed := j - i
		vrs := s.vrScratch[:0]
		if s.mit != nil {
			var nc int
			var dcol []dram.Time
			if dwells != nil {
				dcol = dwells[i:j]
			}
			vrs, nc = s.mit.AppendOnActivateBatch(vrs, rows[i:j], times, dcol)
			s.vrScratch = vrs
			if nc <= 0 || nc > consumed {
				// A scheme that consumes nothing would spin this loop
				// forever and one that consumes past its append replayed
				// ACTs against stale times; both are contract bugs worth
				// failing loudly.
				return fmt.Errorf("memctrl: bank %d: scheme %q batch consumed %d of %d ACTs", bi, s.mit.Name(), nc, consumed)
			}
			consumed = nc
		}
		end := times[consumed-1] + trc
		if dwells != nil {
			if c := dwells[i+consumed-1] + timing.TRP; c > trc {
				end = times[consumed-1] + c
			}
		}

		if s.oracle != nil || s.remap != nil {
			nrows := s.bank.Rows()
			for k := 0; k < consumed; k++ {
				physRow := s.phys(int(rows[i+k]))
				if physRow < 0 || physRow >= nrows {
					return fmt.Errorf("memctrl: bank %d: activate row %d out of range [0,%d)", bi, physRow, nrows)
				}
				if s.oracle != nil {
					var dw dram.Time
					if dwells != nil {
						dw = dwells[i+k]
					}
					s.flipStage = s.oracle.AppendActivateOpen(s.flipStage[:0], physRow, times[k], dw)
					for _, f := range s.flipStage {
						out.flips = append(out.flips, BankFlip{Bank: bi, Flip: f})
					}
				}
			}
		}

		if dwells == nil {
			s.bank.ActivateRun(consumed, end)
		} else {
			trp := timing.TRP
			var busySum dram.Time
			for _, d := range dwells[i : i+consumed] {
				cyc := d + trp
				if cyc < trc {
					cyc = trc
				}
				busySum += cyc
			}
			s.bank.ActivateRunOpen(consumed, busySum, end)
		}
		out.acts += int64(consumed)
		end, err := s.rfmIfDue(end)
		if err != nil {
			return err
		}
		if len(vrs) > 0 {
			if err := s.apply(vrs, end); err != nil {
				return err
			}
		}
		s.now = end
		i += consumed
	}
	return nil
}

// ColBlockSource streams a trace as columnar per-bank blocks — the shape
// trace.BlockReader.NextCols produces. The contract mirrors BlockSource:
// every row/gap pair of a returned block belongs to ColBlock.Bank in
// stream order, buf's columns are reused for the block's backing storage,
// and io.EOF marks a clean end of trace. A BlockSource that also
// implements ColBlockSource (trace.BlockReader does) is replayed
// columnarly by RunBlocks: decoded columns feed the batch core directly,
// with no per-access structs materialized in between.
type ColBlockSource interface {
	Name() string
	NextCols(buf trace.ColBlock) (trace.ColBlock, error)
}

// replayColBlocks is replayBlocks for a columnar source: same router, same
// shared buffer budget, same error discipline — only the payload shape and
// the bank-side replay differ.
func replayColBlocks(cfg Config, src ColBlockSource, states []*bankState) ([]bankOut, error) {
	nbanks := len(states)
	outs := make([]bankOut, nbanks)

	budget := nbanks*(blockDepth+1) + 1
	free := make(chan trace.ColBlock, budget)
	made := 0
	buffer := func() trace.ColBlock {
		select {
		case b := <-free:
			return b
		default:
		}
		if made < budget {
			made++
			return trace.ColBlock{} // NextCols sizes the columns to the block
		}
		return <-free
	}

	chans := make([]chan trace.ColBlock, nbanks)
	jobs := make([]sched.Job, nbanks)
	for bi := range states {
		chans[bi] = make(chan trace.ColBlock, blockDepth)
		bi := bi
		jobs[bi] = sched.Job{
			Label: fmt.Sprintf("bank %d", bi),
			Do: func(context.Context) error {
				s, out := states[bi], &outs[bi]
				for blk := range chans[bi] {
					if out.err == nil {
						out.err = replayColBlock(cfg, nbanks, s, bi, out, blk)
					}
					// Recycle even after an error: the router may be blocked
					// waiting for a free buffer. The free channel holds the
					// whole budget, so this send never blocks.
					free <- trace.ColBlock{Rows: blk.Rows[:0], Gaps: blk.Gaps[:0], Dwells: blk.Dwells[:0]}
				}
				return nil
			},
		}
	}

	routed := make(chan error, 1)
	go func() {
		routed <- func() error {
			defer func() {
				for _, c := range chans {
					close(c)
				}
			}()
			for {
				blk, err := src.NextCols(buffer())
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if blk.Bank < 0 || blk.Bank >= nbanks {
					row := 0
					if len(blk.Rows) > 0 {
						row = int(blk.Rows[0])
					}
					return validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: row})
				}
				if err := cfg.Fault.Hit(faultinject.SitePartition); err != nil {
					return err
				}
				chans[blk.Bank] <- blk
			}
		}()
	}()

	if err := sched.Run(sched.Options{Jobs: nbanks}, jobs); err != nil {
		<-routed
		return nil, err
	}
	if err := <-routed; err != nil {
		return nil, err
	}
	return outs, nil
}

// replayColBlock validates and replays one columnar block on its bank —
// replayBlock's columnar twin: same checks and validate_fail events, same
// panic recovery and fault site, same one progress event per block.
func replayColBlock(cfg Config, nbanks int, s *bankState, bi int, out *bankOut, blk trace.ColBlock) (err error) {
	for _, r := range blk.Rows {
		if err := validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: int(r)}); err != nil {
			return err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("memctrl: bank %d: replay panic: %v", bi, r)
		}
	}()
	if err := cfg.Fault.Hit(faultinject.SiteReplay); err != nil {
		return fmt.Errorf("memctrl: bank %d: %w", bi, err)
	}
	// A segment without the dwell column decodes to a length-zero Dwells
	// slice; nil here routes the run down the fixed-tRC fast path.
	var dwells []dram.Time
	if len(blk.Dwells) != 0 {
		dwells = blk.Dwells
	}
	if s.useScalar {
		for k, r := range blk.Rows {
			a := trace.Access{Bank: blk.Bank, Row: int(r), Gap: blk.Gaps[k]}
			if dwells != nil {
				a.Dwell = dwells[k]
			}
			if err := s.replayOne(a, bi, out); err != nil {
				return err
			}
		}
	} else if err := s.replayRun(blk.Rows, blk.Gaps, dwells, bi, out); err != nil {
		return err
	}
	if cfg.Obs != nil {
		scheme := "none"
		if s.mit != nil {
			scheme = s.mit.Name()
		}
		cfg.Obs.Emit(obs.Event{
			Kind: obs.KindReplayChunk, Scheme: scheme,
			Bank: bi, Time: int64(s.now), Value: out.acts,
		})
	}
	return nil
}
