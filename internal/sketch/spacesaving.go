package sketch

import (
	"fmt"
	"math"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// SSConfig selects a Space-Saving tracker for one bank.
type SSConfig struct {
	TRH      int64
	K        int // reset window divisor (default 2)
	Entries  int // 0 derives ⌈W/T⌉ (the Space-Saving ε = T/W bound)
	Rows     int
	Distance int
	Timing   dram.Timing
}

func (c SSConfig) withDefaults() SSConfig {
	if c.K == 0 {
		c.K = 2
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	return c
}

// ssNode is one tracked row. Nodes of equal estimate form a doubly-linked
// FIFO within their bucket: head = oldest at this count (evicted first),
// tail = newest.
type ssNode struct {
	row        int
	bucket     *ssBucket
	prev, next *ssNode
}

// ssBucket is one count-equivalence class, linked in strictly increasing
// count order; the list head holds the minimum estimate.
type ssBucket struct {
	count      int64
	head, tail *ssNode
	prev, next *ssBucket
}

// SpaceSaving is the per-bank Space-Saving tracker (Metwally et al., ICDT
// 2005): on a miss with a full table, the minimum-count entry is replaced
// and the newcomer inherits min+1. Like Misra-Gries, estimates only ever
// overshoot actual counts, so triggering at multiples of T is sound; the
// structural difference is a min search instead of Misra-Gries' equality
// search against a spillover register. It implements mitigation.Mitigator.
//
// Internally it uses the stream-summary layout from the original paper:
// buckets keyed by estimate in a sorted doubly-linked list, each holding
// its rows in arrival order. The minimum lives at the list head, so the
// miss path is O(1) — previously it scanned the whole row map, which was
// both O(Entries) and, because Go map iteration order is randomized,
// nondeterministic in which of several equal-minimum rows it evicted.
// Stream-summary eviction is deterministic: the row that has held the
// minimum estimate the longest goes first.
type SpaceSaving struct {
	cfg    SSConfig
	t      int64
	w      int64
	nentry int

	rows    map[int]*ssNode // row -> its node
	head    *ssBucket       // bucket with the minimum estimate
	trigger map[int]int64   // row -> estimate at last trigger

	freeN *ssNode   // node pool (linked through next)
	freeB *ssBucket // bucket pool (linked through next)

	window    dram.Time
	windowEnd dram.Time

	refreshes int64
}

var _ mitigation.Mitigator = (*SpaceSaving)(nil)

// NewSpaceSaving builds a Space-Saving tracker from cfg.
func NewSpaceSaving(cfg SSConfig) (*SpaceSaving, error) {
	cfg = cfg.withDefaults()
	if cfg.TRH <= 0 {
		return nil, fmt.Errorf("sketch: TRH must be positive, got %d", cfg.TRH)
	}
	if int64(cfg.Rows) > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: Rows %d exceeds the int32 row address space", cfg.Rows)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	t := cfg.TRH / int64(2*(cfg.K+1))
	if t < 1 {
		return nil, fmt.Errorf("sketch: TRH %d too small for K %d", cfg.TRH, cfg.K)
	}
	window := cfg.Timing.TREFW / dram.Time(cfg.K)
	w := cfg.Timing.MaxACTs(window)
	nentry := cfg.Entries
	if nentry == 0 {
		// Space-Saving error bound: overestimate ≤ W/Entries; choosing
		// Entries ≥ W/T bounds it by T. (Misra-Gries needs the same
		// asymptotics: the two structures are duals.)
		nentry = int((w + t - 1) / t)
	}
	if nentry < 1 {
		return nil, fmt.Errorf("sketch: derived entries < 1")
	}
	return &SpaceSaving{
		cfg: cfg, t: t, w: w, nentry: nentry,
		rows:    make(map[int]*ssNode, nentry),
		trigger: make(map[int]int64, nentry),
		window:  window, windowEnd: window,
	}, nil
}

// Name implements mitigation.Mitigator.
func (s *SpaceSaving) Name() string { return fmt.Sprintf("spacesaving-%d", s.nentry) }

// T returns the trigger threshold.
func (s *SpaceSaving) T() int64 { return s.t }

// Entries returns the table capacity.
func (s *SpaceSaving) Entries() int { return s.nentry }

// VictimRefreshes returns the NRR commands issued.
func (s *SpaceSaving) VictimRefreshes() int64 { return s.refreshes }

// Estimate returns the tracked estimate for row (0 when untracked).
func (s *SpaceSaving) Estimate(row int) int64 {
	n, ok := s.rows[row]
	if !ok {
		return 0
	}
	return n.bucket.count
}

// AppendOnActivate implements mitigation.Mitigator.
func (s *SpaceSaving) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	for now >= s.windowEnd {
		s.resetWindow()
		s.windowEnd += s.window
	}
	var est int64
	if n, ok := s.rows[row]; ok {
		est = s.bump(n)
	} else if len(s.rows) < s.nentry {
		est = 1
		s.insert(row, 1)
	} else {
		// Replace the minimum; the newcomer inherits min+1 (the defining
		// Space-Saving move — overestimates, never underestimates). The
		// victim is the oldest row in the head bucket: O(1), and unlike a
		// map scan, deterministic under ties.
		victim := s.head.head
		min := s.head.count
		delete(s.rows, victim.row)
		delete(s.trigger, victim.row)
		s.removeNode(victim)
		est = min + 1
		s.insert(row, est)
	}
	if est < s.t || est < s.trigger[row]+s.t {
		return dst
	}
	s.trigger[row] = est
	s.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: s.cfg.Distance})
}

// bump moves n to the count+1 bucket and returns the new estimate.
func (s *SpaceSaving) bump(n *ssNode) int64 {
	b := n.bucket
	c := b.count + 1
	nb := b.next
	if nb == nil || nb.count != c {
		nb = s.insertBucketAfter(b, c)
	}
	s.detach(n)
	s.append(nb, n)
	if b.head == nil {
		s.unlinkBucket(b)
	}
	return c
}

// insert places row with the given estimate; count is either 1 (table not
// full) or head.count+1 (after an eviction), so the target bucket is at or
// adjacent to the list head.
func (s *SpaceSaving) insert(row int, count int64) {
	var b *ssBucket
	switch {
	case s.head != nil && s.head.count == count:
		b = s.head
	case s.head != nil && s.head.count < count:
		// Eviction path: count == old head.count + 1.
		if s.head.next != nil && s.head.next.count == count {
			b = s.head.next
		} else {
			b = s.insertBucketAfter(s.head, count)
		}
	default:
		// New minimum (empty list, or count 1 below every existing bucket).
		b = s.allocBucket(count)
		b.next = s.head
		if s.head != nil {
			s.head.prev = b
		}
		s.head = b
	}
	n := s.allocNode(row)
	s.append(b, n)
	s.rows[row] = n
}

func (s *SpaceSaving) append(b *ssBucket, n *ssNode) {
	n.bucket = b
	n.prev, n.next = b.tail, nil
	if b.tail != nil {
		b.tail.next = n
	} else {
		b.head = n
	}
	b.tail = n
}

// detach removes n from its bucket's FIFO without freeing it; the caller
// unlinks the bucket if it emptied.
func (s *SpaceSaving) detach(n *ssNode) {
	b := n.bucket
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next, n.bucket = nil, nil, nil
}

// removeNode detaches n, frees it, and unlinks its bucket if empty.
func (s *SpaceSaving) removeNode(n *ssNode) {
	b := n.bucket
	s.detach(n)
	n.next = s.freeN
	s.freeN = n
	if b.head == nil {
		s.unlinkBucket(b)
	}
}

func (s *SpaceSaving) allocNode(row int) *ssNode {
	n := s.freeN
	if n != nil {
		s.freeN = n.next
		n.next = nil
	} else {
		n = &ssNode{}
	}
	n.row = row
	return n
}

func (s *SpaceSaving) allocBucket(count int64) *ssBucket {
	b := s.freeB
	if b != nil {
		s.freeB = b.next
		b.next = nil
	} else {
		b = &ssBucket{}
	}
	b.count = count
	b.prev, b.next, b.head, b.tail = nil, nil, nil, nil
	return b
}

func (s *SpaceSaving) insertBucketAfter(b *ssBucket, count int64) *ssBucket {
	nb := s.allocBucket(count)
	nb.prev, nb.next = b, b.next
	if b.next != nil {
		b.next.prev = nb
	}
	b.next = nb
	return nb
}

func (s *SpaceSaving) unlinkBucket(b *ssBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.head, b.tail = nil, nil, nil
	b.next = s.freeB
	s.freeB = b
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (s *SpaceSaving) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(s, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator.
func (s *SpaceSaving) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

func (s *SpaceSaving) resetWindow() {
	for b := s.head; b != nil; {
		next := b.next
		for n := b.head; n != nil; {
			nn := n.next
			n.prev, n.bucket = nil, nil
			n.next = s.freeN
			s.freeN = n
			n = nn
		}
		b.prev, b.head, b.tail = nil, nil, nil
		b.next = s.freeB
		s.freeB = b
		b = next
	}
	s.head = nil
	clear(s.rows)
	clear(s.trigger)
}

// Cost implements mitigation.Mitigator: entries × (address CAM + count up
// to W). Without Misra-Gries' spillover/pinning structure the overflow-bit
// compression does not apply, so each count field is full width — the
// §VI area argument for choosing Misra-Gries.
func (s *SpaceSaving) Cost() mitigation.HardwareCost {
	addr := mitigation.Bits(s.cfg.Rows)
	count := mitigation.Bits(int(s.w) + 1)
	return mitigation.HardwareCost{
		Entries: s.nentry,
		CAMBits: s.nentry * (addr + count),
	}
}

// SSFactory returns a mitigation.Factory building identical trackers.
func SSFactory(cfg SSConfig) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return NewSpaceSaving(cfg) }
}
