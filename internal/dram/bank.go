package dram

import (
	"fmt"
	"math"
)

// Bank models a single DRAM bank: its row count, the rolling auto-refresh
// pointer, the DDR5 RAA counter, and occupancy. It keeps no per-row state,
// so its size does not grow with RowsPerBank: every refresh call returns
// the rows it covered and its completion time, and whoever models charge
// (hammer.Oracle) restores it from those. The memory controller
// (internal/memctrl) owns command scheduling; Bank only enforces
// device-side state transitions and bookkeeping.
type Bank struct {
	timing Timing
	rows   int

	// rowsPerREF rows are refreshed, in address order, by each REF command
	// so that the whole bank is covered once per tREFW (§II-A).
	rowsPerREF int
	refPtr     int // next row to be auto-refreshed

	busyUntil Time // device busy (REF/NRR/ACT occupancy)

	// rowScratch backs the row lists AutoRefresh and NearbyRowRefresh
	// return, so the steady-state replay loop allocates nothing per
	// command. The returned slice is valid only until the bank's next
	// AutoRefresh/NearbyRowRefresh call; callers consume it immediately.
	rowScratch []int

	// raa is the DDR5 Rolling Accumulated ACT counter: incremented per
	// activation, decremented by RAAIMT per RFM command. Only maintained
	// when the timing enables RFM (RAAIMT > 0).
	raa int

	stats BankStats
}

// BankStats counts the device-side events needed for the paper's energy and
// performance accounting.
type BankStats struct {
	ACTs            int64 // activations served
	REFCommands     int64 // auto-refresh commands
	RowsAutoRefresh int64 // rows refreshed by auto-refresh
	NRRCommands     int64 // Nearby Row Refresh commands (victim refreshes)
	RowsNRR         int64 // rows refreshed by NRR commands
	RFMCommands     int64 // DDR5 Refresh Management commands issued
	BusyTime        Time  // total time the bank was occupied
}

// NewBank returns an idle bank whose auto-refresh pointer starts at row 0.
func NewBank(t Timing, rows int) (*Bank, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 {
		return nil, fmt.Errorf("dram: bank needs at least one row, got %d", rows)
	}
	// Round up so one window of REF commands always covers every row —
	// the tREFW retention guarantee of §II-A.
	refs := t.RefreshCommandsPerWindow()
	per := int((int64(rows) + refs - 1) / refs)
	if per < 1 {
		per = 1
	}
	return &Bank{timing: t, rows: rows, rowsPerREF: per}, nil
}

// Rows returns the number of rows in the bank.
func (b *Bank) Rows() int { return b.rows }

// Timing returns the bank's timing parameters.
func (b *Bank) Timing() Timing { return b.timing }

// Stats returns a copy of the accumulated counters.
func (b *Bank) Stats() BankStats { return b.stats }

// BusyUntil reports the time at which the bank becomes free.
func (b *Bank) BusyUntil() Time { return b.busyUntil }

func (b *Bank) occupy(from, dur Time) (start, end Time) {
	start = from
	if b.busyUntil > start {
		start = b.busyUntil
	}
	end = start + dur
	b.busyUntil = end
	b.stats.BusyTime += dur
	return start, end
}

// ActivateOpen opens row at the earliest device-legal time at or after now
// and returns when the row cycle completes. The row stays open for dwell
// before precharging, so the cycle occupies max(tRC, dwell + tRP). Dwell 0
// means the device minimum — exactly tRC, the paper's per-ACT bank
// occupancy unit, which is what keeps dwell-unaware traces byte-identical.
func (b *Bank) ActivateOpen(row int, now, dwell Time) (done Time, err error) {
	if row < 0 || row >= b.rows {
		return 0, fmt.Errorf("dram: activate row %d out of range [0,%d)", row, b.rows)
	}
	if dwell < 0 {
		return 0, fmt.Errorf("dram: negative open-row dwell %v", dwell)
	}
	_, end := b.occupy(now, b.timing.ActCycle(dwell))
	b.stats.ACTs++
	b.raa++
	return end, nil
}

// ActCycle returns the bank occupancy of one activation holding its row
// open for dwell: the row cycle floor tRC, stretched to dwell + tRP when
// the open-row time exceeds tRAS.
func (t Timing) ActCycle(dwell Time) Time {
	if c := dwell + t.TRP; c > t.TRC {
		return c
	}
	return t.TRC
}

// ActivateRun accounts a run of count activations in one step — the batched
// replay's bank-side bookkeeping (DESIGN.md §11). The caller has already
// walked the occupancy recurrence ActivateOpen uses (start = max(arrival,
// busyUntil), end = start + tRC, arrival_next = end + gap) across the run;
// end is the completion time of the run's last activation, and the rows
// must have been range-checked upstream. Equivalent to count dwell-0
// ActivateOpen calls: same ACT count, same tRC-per-ACT busy time, same
// final busyUntil.
func (b *Bank) ActivateRun(count int, end Time) {
	b.ActivateRunOpen(count, Time(count)*b.timing.TRC, end)
}

// ActivateRunOpen is ActivateRun for a run whose activations carried
// explicit dwells: busy is the summed per-ACT occupancy (Σ ActCycle(dwell))
// the caller accumulated while walking the recurrence. Equivalent to count
// ActivateOpen calls ending at end.
func (b *Bank) ActivateRunOpen(count int, busy, end Time) {
	b.stats.ACTs += int64(count)
	b.stats.BusyTime += busy
	b.busyUntil = end
	b.raa += count
}

// RFMDue reports whether the RAA counter has reached the RAAIMT threshold
// and the controller owes the bank a Refresh Management command. Always
// false when the timing does not enable RFM.
func (b *Bank) RFMDue() bool {
	return b.timing.RAAIMT > 0 && b.raa >= b.timing.RAAIMT
}

// ACTsToRFM reports how many more activations the bank takes before RFMDue
// turns true — the RFM horizon the batched replay caps its runs at, since
// the RAA counter moves only with the ACT count. math.MaxInt when the
// timing does not enable RFM.
func (b *Bank) ACTsToRFM() int {
	if b.timing.RAAIMT <= 0 {
		return math.MaxInt
	}
	return b.timing.RAAIMT - b.raa
}

// RefreshManagement issues one RFM command at or after now: the bank is
// occupied for tRFM while the device internally refreshes suspected
// victims, and the RAA counter drops by RAAIMT. The in-DRAM tracker the
// command feeds is the device vendor's secret; this model charges the
// command's full timing cost without guessing which rows it covered.
func (b *Bank) RefreshManagement(now Time) (done Time, err error) {
	if b.timing.RAAIMT <= 0 {
		return 0, fmt.Errorf("dram: RFM command on a device without RFM (RAAIMT 0)")
	}
	_, end := b.occupy(now, b.timing.TRFM)
	if b.raa -= b.timing.RAAIMT; b.raa < 0 {
		b.raa = 0
	}
	b.stats.RFMCommands++
	return end, nil
}

// AutoRefresh performs one REF command at or after now, refreshing the next
// rowsPerREF rows in sequence. It returns the completion time and the rows
// covered (so callers can restore their charge model). The returned slice
// reuses the bank's row scratch: it is valid only until the next
// AutoRefresh or NearbyRowRefresh call and must be consumed, not retained.
func (b *Bank) AutoRefresh(now Time) (done Time, rows []int) {
	_, end := b.occupy(now, b.timing.TRFC)
	b.rowScratch = b.rowScratch[:0]
	for i := 0; i < b.rowsPerREF; i++ {
		b.rowScratch = append(b.rowScratch, b.refPtr)
		// refPtr stays in [0, rows), so a wrap compare replaces the modulo —
		// this runs once per refreshed row on every replay path.
		if b.refPtr++; b.refPtr == b.rows {
			b.refPtr = 0
		}
	}
	b.stats.REFCommands++
	b.stats.RowsAutoRefresh += int64(b.rowsPerREF)
	return end, b.rowScratch
}

// NearbyRowRefresh executes an NRR command for aggressor row: all rows
// within distance [1, n] on both sides are refreshed. The bank is occupied
// for tRC per refreshed row plus one tRP (the accounting of §V-B: "tRC ×
// the number of victim rows to refresh ... in addition to tRP"). It returns
// the completion time and the refreshed rows. The returned slice reuses
// the bank's row scratch: it is valid only until the next AutoRefresh or
// NearbyRowRefresh call and must be consumed, not retained.
func (b *Bank) NearbyRowRefresh(aggressor, n int, now Time) (done Time, refreshed []int, err error) {
	if aggressor < 0 || aggressor >= b.rows {
		return 0, nil, fmt.Errorf("dram: NRR aggressor row %d out of range [0,%d)", aggressor, b.rows)
	}
	if n < 1 {
		return 0, nil, fmt.Errorf("dram: NRR distance must be >= 1, got %d", n)
	}
	refreshed = b.rowScratch[:0]
	for d := 1; d <= n; d++ {
		if r := aggressor - d; r >= 0 {
			refreshed = append(refreshed, r)
		}
		if r := aggressor + d; r < b.rows {
			refreshed = append(refreshed, r)
		}
	}
	b.rowScratch = refreshed
	dur := Time(len(refreshed))*b.timing.TRC + b.timing.TRP
	_, end := b.occupy(now, dur)
	b.stats.NRRCommands++
	b.stats.RowsNRR += int64(len(refreshed))
	return end, refreshed, nil
}

// Stall occupies the bank for dur starting at or after now without any
// refresh side effects. The memory controller uses it to charge protection
// schemes' extra DRAM traffic (e.g. CRA's counter reads and writebacks) to
// the bank timeline.
func (b *Bank) Stall(now, dur Time) (done Time, err error) {
	if dur < 0 {
		return 0, fmt.Errorf("dram: negative stall %v", dur)
	}
	_, end := b.occupy(now, dur)
	return end, nil
}

// RefreshRows marks an arbitrary set of rows refreshed at or after now,
// occupying the bank for tRC per row. CBT uses this to refresh whole
// counter regions at once (§II-C).
func (b *Bank) RefreshRows(rows []int, now Time) (done Time, err error) {
	for _, r := range rows {
		if r < 0 || r >= b.rows {
			return 0, fmt.Errorf("dram: refresh row %d out of range [0,%d)", r, b.rows)
		}
	}
	dur := Time(len(rows))*b.timing.TRC + b.timing.TRP
	_, end := b.occupy(now, dur)
	b.stats.NRRCommands++
	b.stats.RowsNRR += int64(len(rows))
	return end, nil
}
