package graphene

import (
	"fmt"
	"math"
)

// ReferenceTable is the naive O(Nentry) implementation of the Misra-Gries
// counter table, kept as the differential oracle. Its miss path linearly
// scans every slot for a spillover-count match in index order, exactly
// like the paper's Count-CAM search read as sequential software (Fig. 5).
// Table must match it byte for byte: same trigger sequence, same spillover
// values, same EstimatedCount/Tracked views, eviction victim for eviction
// victim. The equivalence tests and fuzz targets enforce that.
//
// It is deliberately not a mitigation.Mitigator: it exists for the
// differential harness and for hot-path before/after benchmarks, not for
// simulation use.
type ReferenceTable struct {
	t        int64
	entries  []entry
	index    map[int32]int
	spill    int64
	observed int64

	windowTriggers int64

	hits, replacements, spills, triggers int64
}

// NewReferenceTable builds a reference table with nentry slots and
// tracking threshold t.
func NewReferenceTable(nentry int, t int64) (*ReferenceTable, error) {
	if nentry < 1 {
		return nil, fmt.Errorf("graphene: table needs at least one entry, got %d", nentry)
	}
	if t < 1 {
		return nil, fmt.Errorf("graphene: threshold must be >= 1, got %d", t)
	}
	tb := &ReferenceTable{t: t, entries: make([]entry, nentry), index: make(map[int32]int, nentry)}
	tb.Reset()
	return tb, nil
}

// Reset clears the table and the spillover count.
func (tb *ReferenceTable) Reset() {
	for i := range tb.entries {
		tb.entries[i] = entry{addr: -1}
	}
	clear(tb.index)
	tb.spill = 0
	tb.observed = 0
	tb.windowTriggers = 0
}

// T returns the tracking threshold.
func (tb *ReferenceTable) T() int64 { return tb.t }

// Len returns the number of table entries.
func (tb *ReferenceTable) Len() int { return len(tb.entries) }

// Spillover returns the current spillover count.
func (tb *ReferenceTable) Spillover() int64 { return tb.spill }

// Observed returns the number of ACTs observed since the last reset.
func (tb *ReferenceTable) Observed() int64 { return tb.observed }

// Alert reports whether the spillover count has reached T.
func (tb *ReferenceTable) Alert() bool { return tb.spill >= tb.t }

// Triggers returns how many times an estimated count reached a multiple of
// T since construction.
func (tb *ReferenceTable) Triggers() int64 { return tb.triggers }

// Stats returns the per-path Observe counters since construction.
func (tb *ReferenceTable) Stats() TableStats {
	return TableStats{Hits: tb.hits, Replacements: tb.replacements, Spills: tb.spills, Triggers: tb.triggers}
}

// Observe processes one activation of row with the pre-optimization linear
// miss scan; see Table.Observe for the algorithm.
func (tb *ReferenceTable) Observe(row int) (trigger bool) {
	if row < 0 || row > math.MaxInt32 {
		panic(fmt.Sprintf("graphene: row %d outside the int32 address space", row))
	}
	tb.observed++
	addr := int32(row)

	if i, ok := tb.index[addr]; ok { // row address HIT
		tb.hits++
		e := &tb.entries[i]
		e.count++
		if e.count == tb.t {
			e.count = 0
			e.overflow = true
			e.triggers++
			tb.triggers++
			tb.windowTriggers++
			return true
		}
		return false
	}

	// Row address MISS: linear scan for an entry whose estimated count
	// equals the spillover count — O(Nentry) per miss, the cost Table's
	// cursor amortizes away.
	for i := range tb.entries {
		e := &tb.entries[i]
		if e.overflow || e.count != tb.spill {
			continue
		}
		tb.replacements++
		if e.addr >= 0 {
			delete(tb.index, e.addr)
		}
		e.addr = addr
		e.count++
		tb.index[addr] = i
		if e.count == tb.t {
			e.count = 0
			e.overflow = true
			e.triggers++
			tb.triggers++
			tb.windowTriggers++
			return true
		}
		return false
	}

	tb.spills++
	tb.spill++
	return false
}

// EstimatedCount returns the uncompressed tracked estimate for row since
// the last reset.
func (tb *ReferenceTable) EstimatedCount(row int) (count int64, ok bool) {
	i, ok := tb.index[int32(row)]
	if !ok {
		return 0, false
	}
	e := tb.entries[i]
	return e.count + e.triggers*tb.t, true
}

// Tracked returns every row currently in the table.
func (tb *ReferenceTable) Tracked() []TrackedRow {
	out := make([]TrackedRow, 0, len(tb.index))
	for addr, i := range tb.index {
		e := tb.entries[i]
		out = append(out, TrackedRow{Row: int(addr), Count: e.count, Overflow: e.overflow, Triggers: e.triggers})
	}
	return out
}

// CheckInvariants verifies the same structural facts as
// Table.CheckInvariants (minus the bitmap and cursor checks, which do not
// apply).
func (tb *ReferenceTable) CheckInvariants() error {
	sum := tb.spill
	for _, e := range tb.entries {
		sum += e.count
	}
	sum += tb.windowTriggers * tb.t
	if sum != tb.observed {
		return fmt.Errorf("graphene: count conservation violated: spill+counts+T·triggers = %d, observed = %d", sum, tb.observed)
	}
	for _, e := range tb.entries {
		if e.addr < 0 {
			continue
		}
		c := e.count + e.triggers*tb.t
		switch {
		case !e.overflow && e.count < tb.spill:
			return fmt.Errorf("graphene: entry row %d count %d below spillover %d", e.addr, e.count, tb.spill)
		case e.overflow && tb.spill < tb.t && c < tb.spill:
			return fmt.Errorf("graphene: overflow entry row %d uncompressed count %d below spillover %d", e.addr, c, tb.spill)
		}
	}
	return nil
}
