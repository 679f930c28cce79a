package graphene

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"graphene/internal/obs"
)

// entry is one Misra-Gries counter-table slot. It models the paired
// Address-CAM / Count-CAM entry of Fig. 4.
type entry struct {
	addr     int32 // row address; -1 when the slot has never been filled
	count    int64 // estimated count (mod T when overflow is set)
	overflow bool  // §IV-B: set once the estimated count first reaches T

	// triggers counts how many times this entry reached T since the last
	// reset. The hardware only keeps the 1-bit overflow flag; this shadow
	// counter exists so the simulator can reconstruct uncompressed
	// estimated counts for verification and statistics.
	triggers int64
}

// Table is the Misra-Gries counter table plus spillover-count register of
// §III-A, extended with the multiples-of-T trigger of §III-B and the
// overflow-bit compression of §IV-B.
//
// Table is a pure tracking structure: Observe reports when a row's
// estimated count reaches a multiple of T, and the caller (Bank) turns that
// into victim refreshes. It has no notion of time; reset-window management
// also lives in Bank.
//
// The miss path's Count-CAM search — "which non-overflow entry with the
// lowest slot index has a count equal to the spillover count?" — is a
// forward-only cursor over a bitmap of unpinned slots, where the hardware
// uses a parallel CAM and ReferenceTable a linear scan. While the
// spillover count holds one value, counts only grow and pinned slots stay
// pinned, so a slot that stops being a candidate never becomes one again
// and the lowest-index candidate can only move right. The cursor restarts
// at slot 0 when the spillover count rises or the window resets. A slot is
// passed over at most once per spillover value below its count, so the
// walk costs amortized O(1) per ACT plus ⌈Nentry/64⌉ bitmap words per
// spillover bump, and the hit path keeps no bookkeeping at all. Both
// implementations are byte-identical in every observable; the equivalence
// tests and fuzz targets prove it.
type Table struct {
	t        int64
	entries  []entry
	index    *addrIndex // row address -> entry slot, mirrors the Address-CAM
	spill    int64      // spillover count register
	observed int64      // ACTs observed since the last reset

	// unpinned holds one bit per slot, set while the slot's overflow bit
	// is clear: the slots the Count-CAM search may pick. No unpinned slot
	// below cur holds count == spill.
	unpinned []uint64
	cur      int

	// windowTriggers counts threshold hits since the last reset; it keeps
	// the count-conservation invariant checkable across window resets.
	windowTriggers int64

	// stats (not cleared by Reset; they feed overhead accounting)
	hits, replacements, spills, triggers int64

	// Observability attachment (nil = the no-op default): eviction events
	// cost one nil check, and only on the miss path.
	rec       *obs.Recorder
	obsBank   int
	obsScheme string
	evictions *obs.Counter
}

// NewTable builds a table with nentry slots and tracking threshold t.
func NewTable(nentry int, t int64) (*Table, error) {
	if nentry < 1 {
		return nil, fmt.Errorf("graphene: table needs at least one entry, got %d", nentry)
	}
	if t < 1 {
		return nil, fmt.Errorf("graphene: threshold must be >= 1, got %d", t)
	}
	tb := &Table{
		t: t, entries: make([]entry, nentry),
		index:    newAddrIndex(nentry),
		unpinned: make([]uint64, (nentry+63)/64),
	}
	tb.Reset()
	return tb, nil
}

// Reset clears the table and the spillover count (the per-window reset of
// §III-B).
func (tb *Table) Reset() {
	clear(tb.unpinned)
	for i := range tb.entries {
		tb.entries[i] = entry{addr: -1}
		tb.unpinned[i>>6] |= 1 << (uint(i) & 63)
	}
	tb.index.clear()
	tb.cur = 0
	tb.spill = 0
	tb.observed = 0
	tb.windowTriggers = 0
}

// setRecorder attaches the observability recorder (nil detaches) under
// which replacement evictions are reported, tagged with the owning bank
// index and scheme name. Bank.SetRecorder wires it.
func (tb *Table) setRecorder(rec *obs.Recorder, bank int, scheme string) {
	tb.rec = rec
	tb.obsBank = bank
	tb.obsScheme = scheme
	tb.evictions = rec.Counter("graphene_evictions_total")
}

// T returns the tracking threshold.
func (tb *Table) T() int64 { return tb.t }

// Len returns the number of table entries.
func (tb *Table) Len() int { return len(tb.entries) }

// Spillover returns the current spillover count.
func (tb *Table) Spillover() int64 { return tb.spill }

// Observed returns the number of ACTs observed since the last reset.
func (tb *Table) Observed() int64 { return tb.observed }

// Alert reports whether the spillover count has reached T — the condition
// under which the §IV-B overflow-bit pinning (and with it the tracking
// guarantee) would stop holding. A correctly sized table (Inequality 1 for
// the window's ACT budget) keeps the spillover below W/(Nentry+1) < T, so
// the alert only fires when the device sees more activations per window
// than the configuration was derived for — the hardware alert signal of
// Fig. 4.
func (tb *Table) Alert() bool { return tb.spill >= tb.t }

// Triggers returns how many times an estimated count reached a multiple of
// T since construction (not cleared by Reset; it feeds overhead stats).
func (tb *Table) Triggers() int64 { return tb.triggers }

// TableStats breaks Observe calls down by path taken. The counters span
// the table's lifetime (Reset does not clear them); CAMTiming.Aggregate
// converts them into the modeled hardware table-update time for the same
// stream.
type TableStats struct {
	Hits         int64 // address hit: count increment
	Replacements int64 // miss with a replacement candidate: entry replace
	Spills       int64 // miss without a candidate: spillover bump
	Triggers     int64 // threshold hits (subset of Hits+Replacements)
}

// Stats returns the per-path Observe counters since construction.
func (tb *Table) Stats() TableStats {
	return TableStats{Hits: tb.hits, Replacements: tb.replacements, Spills: tb.spills, Triggers: tb.triggers}
}

// Observe processes one activation of row following Fig. 1/Fig. 5:
//
//   - address hit: increment the entry's estimated count;
//   - miss with an evictable entry whose count equals the spillover count:
//     replace the entry's address and increment its count (the old count is
//     carried over — the defining Misra-Gries move);
//   - otherwise: increment the spillover count.
//
// It returns trigger=true when the row's estimated count reached a multiple
// of T by this activation — the moment Graphene issues victim row refreshes
// (§III-B). Entries whose overflow bit is set are never evicted: by Lemma 2
// their true count strictly exceeds the spillover count for the rest of the
// window, so they can never be a replacement candidate (§IV-B).
//
// Rows must fit the int32 address CAM; Config.Derive rejects banks with
// more than 2^31 rows, and Observe panics rather than silently truncating
// a row that would alias another row's counter.
func (tb *Table) Observe(row int) (trigger bool) {
	trigger, _ = tb.ObserveW(row, 1)
	return trigger
}

// observeMiss handles an address-missing activation: the single Count-CAM
// search of Fig. 5. Every non-overflow count is >= the spillover count, so
// the search walks the unpinned slots from the cursor to the first one
// whose count equals it; the cursor then rests just past that slot, whose
// count is about to exceed the spillover count. Shared by ObserveW (and
// through it Observe) and the fused ObserveRun loop so the replacement/
// spill logic exists once.
func (tb *Table) observeMiss(addr int32) (trigger bool) {
	if i := tb.candidate(); i >= 0 {
		// Entry replace: carry the old count over, +1 for this ACT.
		tb.replacements++
		e := &tb.entries[i]
		if e.addr >= 0 {
			tb.index.del(e.addr)
			tb.evictions.Inc()
			if tb.rec != nil {
				tb.rec.Emit(obs.Event{
					Kind: obs.KindEviction, Scheme: tb.obsScheme, Bank: tb.obsBank,
					Row: int(e.addr), Value: e.count,
				})
			}
		}
		e.addr = addr
		e.count++
		tb.index.put(addr, i)
		if e.count == tb.t {
			e.count = 0
			e.overflow = true
			tb.pin(i)
			e.triggers++
			tb.triggers++
			tb.windowTriggers++
			return true
		}
		return false
	}

	// No replacement candidate: bump the spillover count. Every unpinned
	// count may now equal it, so the search starts over at slot 0.
	tb.spills++
	tb.spill++
	tb.cur = 0
	return false
}

// candidate returns the lowest-index unpinned slot whose count equals the
// spillover count and moves the cursor past it, or returns -1 when no slot
// qualifies.
func (tb *Table) candidate() int {
	entries, spill := tb.entries, tb.spill
	mask := ^uint64(0) << (uint(tb.cur) & 63)
	for w := tb.cur >> 6; w < len(tb.unpinned); w++ {
		for word := tb.unpinned[w] & mask; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if entries[i].count == spill {
				tb.cur = i + 1
				return i
			}
		}
		mask = ^uint64(0)
	}
	return -1
}

// pin takes slot i out of the Count-CAM search: its overflow bit is set
// and by Lemma 2 it can never again be a replacement candidate this
// window.
func (tb *Table) pin(i int) {
	tb.unpinned[i>>6] &^= 1 << (uint(i) & 63)
}

// ObserveRun feeds a run of row activations to the table — the batch
// replay's Misra-Gries inner loop (DESIGN.md §11). It processes rows in
// order and stops immediately after the first row that either reaches a
// multiple of T (trigger, the caller issues victim refreshes and the run
// ends per the batch contract) or raises the spillover alert's rising edge
// (alertEdge, at most once per reset window — the caller emits the alert
// and resumes). consumed counts the rows processed, including the stopping
// one; trigger and alertEdge are never both set (triggers come from the
// hit/replace paths, the alert edge only from the spill path).
//
// The address-CAM probe and the hit-path count increment are inlined with
// the index arrays, threshold, and entry slice loaded once per run instead
// of once per ACT; misses fall through to the shared observeMiss slow
// path. Every observable — counters, the unpinned bitmap and cursor,
// eviction events — mutates exactly as the equivalent Observe sequence
// would.
func (tb *Table) ObserveRun(rows []int32) (consumed int, trigger, alertEdge bool) {
	keys, vals, mask := tb.index.keys, tb.index.vals, tb.index.mask
	entries, t := tb.entries, tb.t
	n := 0
	for _, addr := range rows {
		if addr < 0 {
			panic(fmt.Sprintf("graphene: row %d outside the int32 address space", addr))
		}
		n++
		slot := -1
		for i := uint32(uint64(uint32(addr))*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
			k := keys[i]
			if k == addr {
				slot = int(vals[i])
				break
			}
			if k == -1 {
				break
			}
		}
		if slot >= 0 { // row address HIT
			tb.hits++
			e := &entries[slot]
			e.count++
			if e.count == t {
				e.count = 0
				if !e.overflow {
					e.overflow = true
					tb.pin(slot)
				}
				e.triggers++
				tb.triggers++
				tb.windowTriggers++
				tb.observed += int64(n)
				return n, true, false
			}
			continue
		}
		preSpill := tb.spill
		if tb.observeMiss(addr) {
			tb.observed += int64(n)
			return n, true, false
		}
		if preSpill < t && tb.spill >= t {
			tb.observed += int64(n)
			return n, false, true
		}
	}
	tb.observed += int64(n)
	return n, false, false
}

// ObserveW processes one activation whose duration-weighted disturbance
// counts as w unit observations of row — the RowPress-aware increment
// (mitigation.RowpressIncrement). It is semantically exactly w Observe
// calls: the same Misra-Gries moves, the same count conservation (observed
// advances by w), the same unpinned bitmap and cursor. trigger reports
// whether any of the w units reached a multiple of T — the caller issues
// one victim refresh for the whole ACT, since a single NRR already
// restores the full charge of every neighbor — and alertEdge reports the
// spillover alert's rising edge within the call.
//
// Units replay one at a time only while the row misses (each miss may
// replace an entry or bump the spillover count). Once the row holds an
// entry every remaining unit is a hit on it, so hitW applies them in
// closed form.
func (tb *Table) ObserveW(row int, w int64) (trigger, alertEdge bool) {
	if row < 0 || row > math.MaxInt32 {
		panic(fmt.Sprintf("graphene: row %d outside the int32 address space", row))
	}
	addr := int32(row)
	preSpill := tb.spill
	for ; w > 0; w-- {
		if i, ok := tb.index.get(addr); ok {
			if tb.hitW(i, w) {
				trigger = true
			}
			break
		}
		tb.observed++
		if tb.observeMiss(addr) {
			trigger = true
		}
	}
	alertEdge = preSpill < tb.t && tb.spill >= tb.t
	return trigger, alertEdge
}

// hitW applies w consecutive address hits on slot i at once: the count
// advances by w with wrap at T, each wrap is one trigger (the stored count
// restarts while the overflow bit stays high until the window ends), and
// the entry pins on its first overflow exactly as the unit-by-unit walk
// would pin it. A hit never makes a slot a replacement candidate, so the
// cursor stays where it is.
func (tb *Table) hitW(i int, w int64) (trigger bool) {
	tb.observed += w
	tb.hits += w
	e := &tb.entries[i]
	total := e.count + w
	if total < tb.t {
		e.count = total
		return false
	}
	wraps := total / tb.t
	e.count = total - wraps*tb.t
	if !e.overflow {
		e.overflow = true
		tb.pin(i)
	}
	e.triggers += wraps
	tb.triggers += wraps
	tb.windowTriggers += wraps
	return true
}

// EstimatedCount returns the uncompressed tracked estimate for row since
// the last reset; ok is false when the row is not (or no longer) in the
// table. For entries whose overflow bit is set the stored count is folded
// back out through the shadow trigger counter (the hardware never needs
// this value — it only compares against T — but verification does).
func (tb *Table) EstimatedCount(row int) (count int64, ok bool) {
	if row < 0 || row > math.MaxInt32 {
		return 0, false
	}
	i, ok := tb.index.get(int32(row))
	if !ok {
		return 0, false
	}
	e := tb.entries[i]
	return e.count + e.triggers*tb.t, true
}

// Tracked returns every row currently in the table with its stored count
// and overflow flag, for inspection in tests and tools.
func (tb *Table) Tracked() []TrackedRow {
	out := make([]TrackedRow, 0, tb.index.n)
	for _, e := range tb.entries {
		if e.addr < 0 {
			continue
		}
		out = append(out, TrackedRow{Row: int(e.addr), Count: e.count, Overflow: e.overflow, Triggers: e.triggers})
	}
	return out
}

// TrackedRow is one inspected table entry.
type TrackedRow struct {
	Row      int
	Count    int64 // stored (compressed) count field
	Overflow bool
	Triggers int64 // shadow: times this entry reached T since reset
}

// CheckInvariants verifies the structural facts behind Lemmas 1 and 2 that
// are visible without ground truth:
//
//   - count conservation: spillover + Σ uncompressed counts equals the
//     number of observed ACTs (each trigger consumed T stored counts);
//   - pure Misra-Gries: no live non-overflow entry's count is below the
//     spillover count;
//   - overflow entries' uncompressed counts stay above the spillover count
//     as long as the spillover count is below T — the §IV-B precondition
//     that Inequality 1 sizing guarantees (spill <= W/(Nentry+1) < T). An
//     undersized table (tests build them deliberately) may drive the
//     spillover past T, where pinning deviates from pure Misra-Gries by
//     design, so the clause is only enforced below T;
//   - Count-CAM search state: the unpinned bitmap holds exactly the
//     non-overflow slots, and none of them below the cursor holds the
//     spillover count.
//
// It returns a descriptive error on the first violation. Tests call it
// after every step of randomized streams.
func (tb *Table) CheckInvariants() error {
	unpinned := make([]uint64, len(tb.unpinned))
	for i, e := range tb.entries {
		if e.overflow {
			continue
		}
		unpinned[i>>6] |= 1 << (uint(i) & 63)
		if i < tb.cur && e.count == tb.spill {
			return fmt.Errorf("graphene: slot %d below cursor %d holds the spillover count %d", i, tb.cur, tb.spill)
		}
	}
	if !slices.Equal(unpinned, tb.unpinned) {
		return fmt.Errorf("graphene: unpinned bitmap %x, overflow bits say %x", tb.unpinned, unpinned)
	}
	sum := tb.spill
	for _, e := range tb.entries {
		sum += e.count
	}
	// Each trigger consumed T counts when the stored field was reset.
	sum += tb.windowTriggers * tb.t
	if sum != tb.observed {
		return fmt.Errorf("graphene: count conservation violated: spill+counts+T·triggers = %d, observed = %d", sum, tb.observed)
	}
	live := 0
	for i, e := range tb.entries {
		if e.addr < 0 {
			continue
		}
		live++
		if j, ok := tb.index.get(e.addr); !ok || j != i {
			return fmt.Errorf("graphene: address index lost row %d (slot %d, found %d, %v)", e.addr, i, j, ok)
		}
	}
	if live != tb.index.n {
		return fmt.Errorf("graphene: address index holds %d keys, table has %d live entries", tb.index.n, live)
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
