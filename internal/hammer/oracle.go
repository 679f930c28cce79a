// Package hammer provides the ground-truth Row Hammer model against which
// every protection scheme is judged.
//
// The Oracle tracks, for every potential victim row of one bank, the charge
// disturbance accumulated since that row's last refresh, in units of
// "adjacent-aggressor ACT equivalents": an ACT on a row i rows away adds
// μ_i, with μ_1 = 1 (paper §II-B, §III-D). A victim whose accumulator
// reaches the Row Hammer threshold TRH suffers a bit flip. A scheme has a
// false negative exactly when the oracle records a flip; the paper's
// Theorem (§III-C) says Graphene never does.
//
// The conservative double-sided worst case — two aggressors hammering one
// victim, each contributing after only TRH/2 ACTs — falls out naturally:
// both neighbors' ACTs accumulate into the same victim counter.
package hammer

import (
	"fmt"
	"math"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Flip records one bit-flip event: a victim row whose disturbance
// accumulator reached TRH before any refresh cleared it.
type Flip struct {
	Victim      int
	At          dram.Time
	Disturbance float64
}

func (f Flip) String() string {
	return fmt.Sprintf("bit flip in row %d at %v (disturbance %.1f)", f.Victim, f.At, f.Disturbance)
}

// Oracle is the per-bank ground-truth disturbance tracker.
//
// Its state follows the rows a replay disturbs, not the bank's row count:
// accumulators live in chunks of chunkRows consecutive rows, allocated on
// the first ACT that disturbs a row in them. A row in an absent chunk reads
// as zero and unlatched, so refreshing untouched rows allocates nothing and
// touches no memory.
type Oracle struct {
	rows     int
	trh      float64
	distance int
	mu       []float64 // mu[d-1] = μ_d for d in [1, distance]
	nras     dram.Time // normalizes dwell; 0 until SetNRAS

	chunks []chunk // chunks[i] covers rows [i*chunkRows, (i+1)*chunkRows)

	// flipAt holds the tick each currently latched victim latched at, for
	// refresh-at-flip-tick disambiguation. Only latched rows have an entry,
	// so only recording a flip or refreshing a latched row touches it.
	flipAt map[int]dram.Time

	acts int64
}

// chunkRows is the oracle's allocation unit in rows, a power of two so a
// row splits into chunk and offset with a shift and a mask.
const (
	chunkShift = 12
	chunkRows  = 1 << chunkShift
)

// chunk is one run of chunkRows consecutive rows (fewer for the bank's
// last chunk). Both slices are nil until an ACT first disturbs one of its
// rows.
type chunk struct {
	disturb []float64 // accumulator per row since its last refresh
	latched []uint64  // flip latch bit per row, set until its next refresh
}

// NewOracle builds an oracle for a bank with the given row count, Row
// Hammer threshold, disturbance reach, and μ model (nil = UniformMu). A
// bank has at most 2³¹ rows, so AppendActivateRun's int32 row column
// addresses all of them.
func NewOracle(rows int, trh int64, distance int, mu mitigation.MuModel) (*Oracle, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("hammer: rows must be positive, got %d", rows)
	}
	if rows > math.MaxInt32+1 {
		return nil, fmt.Errorf("hammer: %d rows exceeds the int32 row limit %d", rows, math.MaxInt32+1)
	}
	if trh <= 0 {
		return nil, fmt.Errorf("hammer: TRH must be positive, got %d", trh)
	}
	if _, err := mitigation.AmpFactor(distance, mu); err != nil {
		return nil, err
	}
	if mu == nil {
		mu = mitigation.UniformMu
	}
	mus := make([]float64, distance)
	for d := 1; d <= distance; d++ {
		mus[d-1] = mu(d)
	}
	return &Oracle{
		rows:     rows,
		trh:      float64(trh),
		distance: distance,
		mu:       mus,
		chunks:   make([]chunk, (rows+chunkRows-1)>>chunkShift),
	}, nil
}

// SetNRAS fixes the device's minimum open-row duration, against which
// AppendActivateOpen normalizes dwell (weight = dwell/nRAS, RowPress
// §4). Zero (the default) disables weighting: every ACT counts 1
// regardless of dwell, the pre-RowPress model.
func (o *Oracle) SetNRAS(nras dram.Time) {
	if nras < 0 {
		panic(fmt.Sprintf("hammer: negative nRAS %v", nras))
	}
	o.nras = nras
}

// Rows returns the bank's row count.
func (o *Oracle) Rows() int { return o.rows }

// ACTs returns the number of activations observed.
func (o *Oracle) ACTs() int64 { return o.acts }

// AppendActivate records one ACT on row at time now and appends any
// victims that flip as a result to dst, returning the extended slice
// (append-style, so the replay hot path can recycle one staging buffer
// across ACTs). Each victim is reported at most once per refresh interval
// (the latch clears when the row is refreshed).
func (o *Oracle) AppendActivate(dst []Flip, row int, now dram.Time) []Flip {
	return o.AppendActivateOpen(dst, row, now, 0)
}

// AppendActivateOpen is AppendActivate for an activation that holds its
// row open for dwell picoseconds. Under the duration-weighted disturbance
// model (RowPress: disturbance grows with open-row time), the per-ACT
// increment scales by dwell/nRAS. Dwell 0 means the device minimum and
// always weighs exactly 1, as does every dwell when no nRAS has been
// configured — so legacy streams are bit-identical through either entry
// point. It is AppendActivateRun over a run of one.
func (o *Oracle) AppendActivateOpen(dst []Flip, row int, now, dwell dram.Time) []Flip {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: activate row %d out of range [0,%d)", row, o.rows))
	}
	// NewOracle caps rows at 2³¹, so the int32 conversion is exact. A
	// dwell-0 ACT goes without a dwell column, as dwell-free runs do.
	rows, at := [1]int32{int32(row)}, [1]dram.Time{now}
	if dwell == 0 {
		return o.AppendActivateRun(dst, rows[:], at[:], nil)
	}
	dwells := [1]dram.Time{dwell}
	return o.AppendActivateRun(dst, rows[:], at[:], dwells[:])
}

// AppendActivateRun records a run of ACTs in order — rows[k] activated at
// at[k], holding its row open for dwells[k] (a nil dwells column is dwell
// 0 throughout) — and appends the victims that flip to dst, each stamped
// with the time of the ACT that latched it. Every accumulator, flip and
// latch ends exactly as len(rows) AppendActivateOpen calls would leave
// them: per ACT the same weight, the same increments in the same order
// (nearer victims first, row−d before row+d).
func (o *Oracle) AppendActivateRun(dst []Flip, rows []int32, at, dwells []dram.Time) []Flip {
	if len(at) != len(rows) || (dwells != nil && len(dwells) != len(rows)) {
		panic(fmt.Sprintf("hammer: run of %d rows with %d times and %d dwells", len(rows), len(at), len(dwells)))
	}
	for _, dw := range dwells {
		if dw < 0 {
			panic(fmt.Sprintf("hammer: negative dwell %v", dw))
		}
	}
	nrows, trh, nras, chunks := o.rows, o.trh, o.nras, o.chunks
	if o.distance == 1 {
		// The common ±1 model: both victims inline, no inner loop.
		mu1 := o.mu[0]
		for k, r := range rows {
			row := int(r)
			if uint(row) >= uint(nrows) {
				panic(fmt.Sprintf("hammer: activate row %d out of range [0,%d)", row, nrows))
			}
			inc := mu1
			if dwells != nil {
				inc = mu1 * dwellWeight(dwells[k], nras)
			}
			if v := row - 1; v >= 0 {
				c := &chunks[v>>chunkShift]
				if c.disturb == nil {
					o.alloc(v >> chunkShift)
				}
				i := v & (chunkRows - 1)
				x := c.disturb[i] + inc
				c.disturb[i] = x
				if x >= trh && c.latched[i>>6]&(1<<(i&63)) == 0 {
					dst = o.latch(dst, c, v, at[k])
				}
			}
			if v := row + 1; v < nrows {
				c := &chunks[v>>chunkShift]
				if c.disturb == nil {
					o.alloc(v >> chunkShift)
				}
				i := v & (chunkRows - 1)
				x := c.disturb[i] + inc
				c.disturb[i] = x
				if x >= trh && c.latched[i>>6]&(1<<(i&63)) == 0 {
					dst = o.latch(dst, c, v, at[k])
				}
			}
		}
		o.acts += int64(len(rows))
		return dst
	}
	mu := o.mu
	for k, r := range rows {
		row := int(r)
		if uint(row) >= uint(nrows) {
			panic(fmt.Sprintf("hammer: activate row %d out of range [0,%d)", row, nrows))
		}
		weight := 1.0
		if dwells != nil {
			weight = dwellWeight(dwells[k], nras)
		}
		for d, m := range mu {
			inc := m * weight
			for _, v := range [2]int{row - d - 1, row + d + 1} {
				if v < 0 || v >= nrows {
					continue
				}
				c := &chunks[v>>chunkShift]
				if c.disturb == nil {
					o.alloc(v >> chunkShift)
				}
				i := v & (chunkRows - 1)
				x := c.disturb[i] + inc
				c.disturb[i] = x
				if x >= trh && c.latched[i>>6]&(1<<(i&63)) == 0 {
					dst = o.latch(dst, c, v, at[k])
				}
			}
		}
	}
	o.acts += int64(len(rows))
	return dst
}

// dwellWeight is an ACT's increment multiplier: dwell/nRAS, or exactly 1
// for dwell 0 or an unset nRAS. The dwell is non-negative (AppendActivateRun
// checks its column up front).
func dwellWeight(dwell, nras dram.Time) float64 {
	if dwell != 0 && nras > 0 {
		return float64(dwell) / float64(nras)
	}
	return 1
}

// latch records victim v, in chunk c, flipping at now: it sets the row's
// latch bit and flip tick and appends the flip to dst. The caller has
// checked that v reached TRH and was not latched yet.
func (o *Oracle) latch(dst []Flip, c *chunk, v int, now dram.Time) []Flip {
	i := v & (chunkRows - 1)
	c.latched[i>>6] |= 1 << (i & 63)
	if o.flipAt == nil {
		o.flipAt = make(map[int]dram.Time)
	}
	o.flipAt[v] = now
	return append(dst, Flip{Victim: v, At: now, Disturbance: c.disturb[i]})
}

// alloc gives chunk ci its arrays, sized to the rows the bank has from the
// chunk's first row on, so a bank smaller than one chunk pays only for its
// own rows.
func (o *Oracle) alloc(ci int) {
	n := min(chunkRows, o.rows-ci*chunkRows)
	o.chunks[ci] = chunk{disturb: make([]float64, n), latched: make([]uint64, (n+63)/64)}
}

// RefreshRow restores row's charge: its disturbance accumulator and flip
// latch are cleared. Call it for every row covered by an auto-refresh, NRR,
// or region refresh.
func (o *Oracle) RefreshRow(row int) {
	// A refresh after every possible flip tick always releases the latch.
	o.RefreshRowAt(row, math.MaxInt64)
}

// RefreshRowAt is RefreshRow for a refresh issued at time now. The
// disturbance accumulator always clears, but the flip latch survives a
// refresh at the exact tick the flip was recorded: the flip already
// happened in that instant's episode, and releasing the latch would let
// the fractional-increment model re-report the same flip from residual
// same-tick activity. A refresh strictly after the flip tick clears the
// latch as usual. A row in an absent chunk is already clear.
func (o *Oracle) RefreshRowAt(row int, now dram.Time) {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: refresh row %d out of range [0,%d)", row, o.rows))
	}
	c := &o.chunks[row>>chunkShift]
	if c.disturb == nil {
		return
	}
	i := row & (chunkRows - 1)
	c.disturb[i] = 0
	w, bit := &c.latched[i>>6], uint64(1)<<(i&63)
	if *w&bit == 0 || now <= o.flipAt[row] {
		return
	}
	*w &^= bit
	delete(o.flipAt, row)
}

// Disturbance returns the victim accumulator for row.
func (o *Oracle) Disturbance(row int) float64 {
	if row < 0 || row >= o.rows {
		panic(fmt.Sprintf("hammer: disturbance of row %d out of range [0,%d)", row, o.rows))
	}
	if c := o.chunks[row>>chunkShift]; c.disturb != nil {
		return c.disturb[row&(chunkRows-1)]
	}
	return 0
}

// MaxDisturbance returns the most-disturbed row and its accumulator value —
// the safety-margin metric used in tests (must stay below TRH for sound
// schemes). Ties go to the lowest row; with nothing disturbed it is (0, 0).
func (o *Oracle) MaxDisturbance() (row int, d float64) {
	for ci, c := range o.chunks {
		for i, v := range c.disturb {
			if v > d {
				row, d = ci*chunkRows+i, v
			}
		}
	}
	return row, d
}

// Reset clears all accumulators and flip latches. Allocated chunks stay,
// zeroed, for the rows the next pass is likely to disturb again.
func (o *Oracle) Reset() {
	for _, c := range o.chunks {
		clear(c.disturb)
		clear(c.latched)
	}
	clear(o.flipAt)
	o.acts = 0
}

// VictimReport is one row's current disturbance, for reporting.
type VictimReport struct {
	Row         int
	Disturbance float64
}

// TopVictims returns the n most-disturbed rows, highest first — the
// monitoring view a controller would export alongside the scheme's own
// counters.
func (o *Oracle) TopVictims(n int) []VictimReport {
	if n <= 0 {
		return nil
	}
	top := make([]VictimReport, 0, n+1)
	for ci, c := range o.chunks {
		for i, d := range c.disturb {
			if d == 0 {
				continue
			}
			// Insertion into the small sorted slice.
			j := len(top)
			for j > 0 && top[j-1].Disturbance < d {
				j--
			}
			if j >= n {
				continue
			}
			top = append(top, VictimReport{})
			copy(top[j+1:], top[j:])
			top[j] = VictimReport{Row: ci*chunkRows + i, Disturbance: d}
			if len(top) > n {
				top = top[:n]
			}
		}
	}
	return top
}
