// Package mitigation defines the interface every Row Hammer protection
// scheme in this repository implements, plus the hardware-cost vocabulary
// used for the paper's area comparisons (Table IV, Fig. 9(a)).
//
// A Mitigator instance guards a single DRAM bank, mirroring the paper's
// per-bank counter tables. The memory controller feeds it every ACT command
// it issues to that bank (AppendOnActivateBatch, or AppendOnActivate one
// at a time) and calls AppendTick at every tREFI (where REF commands are
// scheduled); the mitigator appends the victim refreshes the controller
// must perform before the activation stream can continue into a
// caller-owned buffer that is recycled between calls.
package mitigation

import "graphene/internal/dram"

// VictimRefresh is one proactive refresh a scheme requests.
//
// Either Rows is non-nil — an explicit set of rows to refresh (CBT refreshes
// whole counter regions) — or Aggressor/Distance name an NRR command
// refreshing every row within Distance of Aggressor on both sides.
type VictimRefresh struct {
	Aggressor int
	Distance  int
	Rows      []int
}

// Explicit reports whether the refresh targets an explicit row set rather
// than an aggressor neighborhood.
func (v VictimRefresh) Explicit() bool { return v.Rows != nil }

// RowCount returns how many rows the refresh touches inside a bank with the
// given number of rows (edge rows have fewer neighbors). It runs once per
// victim command on the replay hot path (memctrl's nrr reporting when
// observability is on, CBT's refresh accounting), so the neighbor count is
// closed-form: the left reach is clipped at row 0, the right reach at the
// last row.
func (v VictimRefresh) RowCount(bankRows int) int {
	if v.Explicit() {
		return len(v.Rows)
	}
	if v.Distance <= 0 {
		return 0
	}
	return min(v.Distance, max(0, v.Aggressor)) +
		min(v.Distance, max(0, bankRows-1-v.Aggressor))
}

// Mitigator is one per-bank Row Hammer protection engine.
//
// The Append methods follow the standard append contract (API v2,
// DESIGN.md §9): the callee appends its victim refreshes to dst and
// returns the extended slice, never shrinking or reordering the prefix
// dst[:len(dst)] already held. The callee must not retain dst (or the
// returned slice) past the call; the caller may recycle the buffer between
// calls, so the memory-controller replay loop performs zero heap
// allocations per ACT in steady state — matching the paper's argument that
// per-ACT tracking work hides inside the ACT-to-ACT timing window (§IV-B).
//
// Appended VictimRefresh values may carry Rows slices aliasing storage the
// scheme owns and recycles (CBT's region scratch, PARA's victim cells);
// they are valid only until the scheme's next Append call and must be
// consumed, not retained.
//
// The interface holds only what the controller drives. There is no reset:
// every run builds fresh engines through its Factory, and periodic reset
// windows are each scheme's own business, advanced from the ACT times it
// is fed.
type Mitigator interface {
	// Name identifies the scheme (e.g. "graphene", "para", "cbt-128").
	Name() string

	// AppendOnActivate observes one ACT to the guarded bank and appends
	// the victim refreshes that must be issued now (possibly none) to dst,
	// returning the extended slice.
	AppendOnActivate(dst []VictimRefresh, row int, now dram.Time) []VictimRefresh

	// AppendOnActivateBatch observes a run of ACTs — rows[i] at now[i],
	// held open for dwell[i] — and appends victim refreshes to dst,
	// returning the extended slice and the number of ACTs consumed. The
	// caller guarantees len(now) == len(rows) > 0 and that every row fits
	// the int32 address space (trace.MaxRow); dwell is either nil (every
	// ACT holds its row open for the device minimum nRAS — the only case
	// on the pre-RowPress replay path, so dwell-unaware schemes ignore
	// the column entirely) or a slice of len(rows) open-row durations in
	// picoseconds where 0 again means nRAS. The callee must not retain
	// any of the slices past the call.
	//
	// The batch contract (DESIGN.md §11): ACTs are consumed in order and
	// the callee STOPS immediately after the first ACT that appended
	// refreshes — consumed is that ACT's index + 1, or len(rows) when no
	// ACT appended. Consuming past an appending ACT is a contract
	// violation: applying the refreshes changes the caller's bank
	// timeline, so every now[i] beyond the stop index is stale. A scheme
	// that reports extra DRAM traffic (an ExtraDRAMAccesses method, like
	// CRA's counter-cache misses) also stops immediately after the first
	// ACT that caused any: the controller charges that traffic to the bank
	// before the next ACT. A scheme with no fused path and no extra
	// traffic delegates to ScalarBatch, which implements the contract over
	// AppendOnActivate.
	AppendOnActivateBatch(dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int)

	// AppendTick is called once per tREFI, when the controller schedules
	// the REF command. Schemes that act at refresh granularity (TWiCe
	// pruning, PRoHIT's piggybacked target refresh) append their
	// refresh-time victim refreshes to dst; others return dst unchanged.
	AppendTick(dst []VictimRefresh, now dram.Time) []VictimRefresh

	// Cost reports the scheme's per-bank hardware cost.
	Cost() HardwareCost
}

// ScalarBatch implements the AppendOnActivateBatch contract by looping a
// scheme's per-ACT AppendOnActivate: it consumes ACTs in order and stops
// immediately after the first one that appended. Schemes without a fused
// batch path delegate to it in one line, so the whole registry satisfies
// the batch interface; the fused implementations (Graphene's hoisted
// Misra-Gries loop, PARA, TWiCe, CBT) replace it where the per-call
// overhead matters or the dwell column weighs the count. The dwell column
// is dropped here: a dwell-unaware scheme treats every ACT as a
// minimum-duration activation, exactly like its scalar path.
func ScalarBatch(m Mitigator, dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int) {
	_ = dwell
	for i, r := range rows {
		pre := len(dst)
		dst = m.AppendOnActivate(dst, int(r), now[i])
		if len(dst) > pre {
			return dst, i + 1
		}
	}
	return dst, len(rows)
}

// RowpressIncrement converts one ACT's open-row dwell into a counter
// increment under the RowPress-aware tracking model: 1 for a
// minimum-duration activation (dwell 0 or <= nRAS), plus one for every
// started nRAS of open-row time beyond it —
//
//	inc = 1 + ceil(max(0, dwell−nRAS) / nRAS)    (= ceil(dwell/nRAS) past nRAS)
//
// mirroring the rowpress_increment_nticks knob of the RowPress Ramulator
// patch at its nRAS setting. The increment dominates the oracle's
// duration weight dwell/nRAS, which is what preserves a sound tracker's
// zero-false-negative guarantee under long-open-row attacks; dwell == nRAS
// yields exactly 1, so RowPress-aware tracking of a minimum-dwell stream
// is bit-identical to legacy tracking. nras is the device's
// dram.Timing.NRAS().
func RowpressIncrement(dwell, nras dram.Time) int64 {
	if dwell <= nras || nras <= 0 {
		return 1
	}
	return int64((dwell + nras - 1) / nras)
}

// HardwareCost describes per-bank tracking-structure cost in the units the
// paper compares (bits of CAM and SRAM storage; Table IV).
type HardwareCost struct {
	Entries  int // tracking entries (0 for table-free schemes such as PARA)
	CAMBits  int // content-addressable storage bits
	SRAMBits int // plain SRAM storage bits
}

// TotalBits returns CAM + SRAM bits.
func (c HardwareCost) TotalBits() int { return c.CAMBits + c.SRAMBits }

// Factory builds a fresh Mitigator for one bank. The sim layer instantiates
// one per bank so that schemes keep per-bank state, as in the paper.
type Factory func() (Mitigator, error)

// Bits returns the number of bits needed to represent values in [0, n),
// with a minimum of 1. It is the bit-width helper used throughout the area
// models (e.g. 16 bits for 64K row addresses, §IV-B).
func Bits(n int) int {
	if n <= 1 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Bits64 is Bits over the full 64-bit range. Derivations that size
// counters from a refresh window's ACT capacity must use this: the window
// count is an int64, and narrowing it through int before the +1 overflows
// once the window exceeds the platform's int range.
func Bits64(n int64) int {
	if n <= 1 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
