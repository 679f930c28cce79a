package graphene

import (
	"fmt"
	"math/bits"
)

// bucketIndex makes the Table's miss-path Count-CAM search O(1) in
// software. It groups the non-overflow slots by their stored count into a
// doubly-linked list of buckets in strictly increasing count order — the
// stream-summary layout of Space-Saving (Metwally et al., ICDT 2005),
// which Misra-Gries shares because both structures only ever move a slot
// upward in count.
//
// The structure exploits two facts the table invariants guarantee:
//
//   - every non-overflow slot's count is >= the spillover count, so a
//     replacement candidate (count == spillover) exists iff the head
//     bucket's count equals the spillover count — one pointer compare
//     replaces the linear Nentry scan;
//   - counts only grow: advance moves a slot by +by in one step, walking
//     forward past at most by-1 buckets — a unit observation (+1) reaches
//     the adjacent bucket with no searching, a weighted RowPress hit (+w)
//     skips the counts in between.
//
// Each bucket stores its members as a two-level bitmap over slot indices,
// so the lowest-index member — the slot the hardware priority encoder
// behind the Count-CAM would report (Fig. 5), and the one the naive
// index-order scan picks — is recovered with two find-first-set
// instructions. This keeps the optimized table byte-identical to
// ReferenceTable, eviction victim for eviction victim.
type bucketIndex struct {
	nentry int
	head   *bucket   // bucket with the lowest count
	slot   []*bucket // slot index -> containing bucket; nil once pinned
	free   *bucket   // recycled bucket nodes (linked through next)
}

// bucket is one count-equivalence class of table slots.
type bucket struct {
	count      int64
	set        slotSet
	prev, next *bucket
}

func newBucketIndex(nentry int) *bucketIndex {
	return &bucketIndex{nentry: nentry, slot: make([]*bucket, nentry)}
}

// reset recycles every bucket and regroups all slots (counts cleared to
// zero, overflow pins released) into a single count-0 bucket.
func (x *bucketIndex) reset() {
	for b := x.head; b != nil; {
		next := b.next
		b.set.clear()
		b.prev, b.next = nil, x.free
		x.free = b
		b = next
	}
	b := x.alloc(0)
	b.set.fill(x.nentry)
	x.head = b
	for i := range x.slot {
		x.slot[i] = b
	}
}

// candidate returns the lowest-index slot whose count equals spill, if one
// exists — the single Count-CAM search of Fig. 5.
func (x *bucketIndex) candidate(spill int64) (int, bool) {
	if x.head == nil || x.head.count != spill {
		return -1, false
	}
	return x.head.set.first(), true
}

// advance moves slot i from its bucket to the count+by bucket (by >= 1) in
// one step. With by = 1 the walk never runs: the target is the adjacent
// bucket or a new one right after it. For by > 1 it leaves the same bucket
// list as by successive +1 moves: the intermediate buckets those moves
// would create for slot i alone, they would also unlink again.
func (x *bucketIndex) advance(i int, by int64) {
	b := x.slot[i]
	c := b.count + by
	at := b // last bucket below c
	for at.next != nil && at.next.count < c {
		at = at.next
	}
	nb := at.next
	if nb == nil || nb.count != c {
		nb = x.insertAfter(at, c)
	}
	b.set.remove(i)
	nb.set.add(i)
	x.slot[i] = nb
	if b.set.pop == 0 {
		x.unlink(b)
	}
}

// pin removes slot i from the index entirely: its overflow bit is set and
// by Lemma 2 it can never again be a replacement candidate this window.
func (x *bucketIndex) pin(i int) {
	b := x.slot[i]
	b.set.remove(i)
	x.slot[i] = nil
	if b.set.pop == 0 {
		x.unlink(b)
	}
}

func (x *bucketIndex) alloc(count int64) *bucket {
	b := x.free
	if b != nil {
		x.free = b.next
		b.next = nil
	} else {
		b = &bucket{set: newSlotSet(x.nentry)}
	}
	b.count = count
	return b
}

func (x *bucketIndex) insertAfter(b *bucket, count int64) *bucket {
	nb := x.alloc(count)
	nb.prev, nb.next = b, b.next
	if b.next != nil {
		b.next.prev = nb
	}
	b.next = nb
	return nb
}

func (x *bucketIndex) unlink(b *bucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		x.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, x.free
	x.free = b
}

// check validates the index against the slot array: list ordering, bitmap
// consistency, and exact slot<->bucket agreement. Table.CheckInvariants
// calls it so the fuzz targets cover the structure as well as the
// algorithm.
func (x *bucketIndex) check(entries []entry) error {
	seen := 0
	var last int64 = -1
	for b := x.head; b != nil; b = b.next {
		if b.count <= last {
			return fmt.Errorf("graphene: bucket list not strictly increasing: %d after %d", b.count, last)
		}
		last = b.count
		if b.set.pop == 0 {
			return fmt.Errorf("graphene: empty bucket %d left in list", b.count)
		}
		if b.prev != nil && b.prev.next != b {
			return fmt.Errorf("graphene: broken prev link at bucket %d", b.count)
		}
		pop := 0
		for w, word := range b.set.words {
			pop += bits.OnesCount64(word)
			hasSum := b.set.sum[w>>6]&(1<<(uint(w)&63)) != 0
			if (word != 0) != hasSum {
				return fmt.Errorf("graphene: bucket %d summary bit for word %d stale", b.count, w)
			}
		}
		if pop != b.set.pop {
			return fmt.Errorf("graphene: bucket %d pop %d != bitmap weight %d", b.count, b.set.pop, pop)
		}
		seen += pop
	}
	live := 0
	for i := range entries {
		e := &entries[i]
		b := x.slot[i]
		switch {
		case e.overflow && b != nil:
			return fmt.Errorf("graphene: overflow slot %d still indexed", i)
		case !e.overflow && b == nil:
			return fmt.Errorf("graphene: slot %d missing from index", i)
		case b != nil && b.count != e.count:
			return fmt.Errorf("graphene: slot %d count %d indexed under bucket %d", i, e.count, b.count)
		case b != nil && !b.set.has(i):
			return fmt.Errorf("graphene: slot %d absent from its bucket's bitmap", i)
		}
		if !e.overflow {
			live++
		}
	}
	if seen != live {
		return fmt.Errorf("graphene: index holds %d slots, table has %d live", seen, live)
	}
	return nil
}

// slotSet is a two-level bitmap over slot indices: words holds one bit per
// slot, sum one bit per non-zero word. first() is two find-first-set
// operations for tables up to 4096 entries (beyond that the summary scan
// adds one word per further 4096 slots — still effectively constant).
type slotSet struct {
	words []uint64
	sum   []uint64
	pop   int
}

func newSlotSet(nentry int) slotSet {
	nw := (nentry + 63) / 64
	return slotSet{words: make([]uint64, nw), sum: make([]uint64, (nw+63)/64)}
}

func (s *slotSet) add(i int) {
	w := i >> 6
	s.words[w] |= 1 << (uint(i) & 63)
	s.sum[w>>6] |= 1 << (uint(w) & 63)
	s.pop++
}

func (s *slotSet) remove(i int) {
	w := i >> 6
	s.words[w] &^= 1 << (uint(i) & 63)
	if s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
	s.pop--
}

func (s *slotSet) has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// first returns the lowest set slot index; the caller guarantees pop > 0.
func (s *slotSet) first() int {
	for si, sw := range s.sum {
		if sw == 0 {
			continue
		}
		w := si<<6 + bits.TrailingZeros64(sw)
		return w<<6 + bits.TrailingZeros64(s.words[w])
	}
	panic("graphene: first() on empty slot set")
}

// fill sets slots 0..n-1.
func (s *slotSet) fill(n int) {
	for i := range s.words {
		s.words[i] = 0
	}
	for i := 0; i < n>>6; i++ {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(n) & 63; rem != 0 {
		s.words[n>>6] = 1<<rem - 1
	}
	for i := range s.sum {
		s.sum[i] = 0
	}
	for w, word := range s.words {
		if word != 0 {
			s.sum[w>>6] |= 1 << (uint(w) & 63)
		}
	}
	s.pop = n
}

func (s *slotSet) clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	for i := range s.sum {
		s.sum[i] = 0
	}
	s.pop = 0
}
