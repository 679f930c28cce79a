package memctrl

import (
	"fmt"

	"graphene/internal/dram"
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
//     ACT that brings the DDR5 RAA counter to RAAIMT, or the run cap (for
//     a scheme with extra traffic, twice the last consumed run plus one)
//     — precomputing every ACT start time in the run, with no per-ACT
//     branch on the refresh clock or the RAA counter;
//  2. hands the whole run to the mitigator's AppendOnActivateBatch, which
//     consumes ACTs until its first append or its first ACT that causes
//     extra DRAM traffic (the batch contract: an applied refresh or a
//     charged transfer changes the bank timeline, so later precomputed
//     times would go stale);
//  3. feeds the consumed prefix to the oracle in one AppendActivateRun
//     call (translated to physical rows first under a remapper), accounts
//     the bank's ACT run in one ActivateRun call, issues the RFM command
//     when the prefix ended on the RAAIMT-th ACT, applies any refreshes at
//     the resulting completion time, and charges the scheme's extra DRAM
//     traffic — exactly when the scalar path would have.
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
	// asserts on. Both paths rely on replayBlock's upstream range check of
	// the logical rows; only a remapper's physical rows are checked here
	// (physRun). A dwell column disqualifies the collapse: per-ACT
	// occupancy varies.
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
		if s.extraFn != nil {
			// A scheme with extra traffic ends its batch at every miss, so
			// on a miss-heavy stream a walk to the horizon would cost the
			// ACTs left before it for each ACT consumed. Grow the walk from
			// the last consumed run instead: a streak of hits doubles it.
			runCap = min(runCap, 2*s.lastRun+1)
		}
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
		s.lastRun = consumed
		end := times[consumed-1] + trc
		if dwells != nil {
			if c := dwells[i+consumed-1] + timing.TRP; c > trc {
				end = times[consumed-1] + c
			}
		}

		// The oracle lives in physical space; with a remapper the prefix is
		// translated (and range-checked) into a column first.
		phys := rows[i : i+consumed]
		if s.remap != nil {
			var err error
			if phys, err = s.physRun(phys, bi); err != nil {
				return err
			}
		}
		if s.oracle != nil {
			var dcol []dram.Time
			if dwells != nil {
				dcol = dwells[i : i+consumed]
			}
			s.flipStage = s.oracle.AppendActivateRun(s.flipStage[:0], phys, times[:consumed], dcol)
			for _, f := range s.flipStage {
				out.flips = append(out.flips, BankFlip{Bank: bi, Flip: f})
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
		if err := s.chargeExtra(end); err != nil {
			return err
		}
		s.now = end
		i += consumed
	}
	return nil
}

// physRun translates a run of logical rows through the remapper into the
// recycled physScratch column. A remapper that maps a row outside the bank
// fails the replay, as the scalar path's activation does.
func (s *bankState) physRun(rows []int32, bi int) ([]int32, error) {
	nrows := s.bank.Rows()
	phys := s.physScratch[:0]
	for _, r := range rows {
		p := s.remap.ToPhysical(int(r))
		if p < 0 || p >= nrows {
			return nil, fmt.Errorf("memctrl: bank %d: activate row %d out of range [0,%d)", bi, p, nrows)
		}
		phys = append(phys, int32(p))
	}
	s.physScratch = phys
	return phys, nil
}
