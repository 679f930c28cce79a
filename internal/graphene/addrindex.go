package graphene

// addrIndex is the software model of the Address-CAM search of Fig. 4: a
// fixed-capacity open-addressing hash from row address to table slot. It
// replaces a Go map on the Observe hot path — the table holds at most
// Nentry (≤ a few hundred) live rows, so a power-of-two array at ≤ 25%
// load answers get/put/del in one or two probes without map overhead or
// iteration-order nondeterminism. Deletion backward-shifts the probe
// chain (Knuth, TAOCP vol. 3 §6.4), so no tombstones accumulate under
// the adversarial all-distinct churn that replaces an entry on nearly
// every ACT.
type addrIndex struct {
	mask uint32
	keys []int32 // row address per probe slot; -1 = empty
	vals []int32 // table slot index for the key
	n    int
}

func newAddrIndex(nentry int) *addrIndex {
	size := 8
	for size < 4*nentry {
		size <<= 1
	}
	a := &addrIndex{mask: uint32(size - 1), keys: make([]int32, size), vals: make([]int32, size)}
	a.clear()
	return a
}

func (a *addrIndex) clear() {
	for i := range a.keys {
		a.keys[i] = -1
	}
	a.n = 0
}

// hash multiplies the row by ⌊2⁶⁴/φ⌋ (Fibonacci hashing, Knuth TAOCP
// vol. 3 §6.4) and masks bits 32 and up of the product to the index size.
// Those bits depend on every bit of a 31-bit row. The low bits of a 32-bit
// product would not do: they depend only on the row's low bits, so rows a
// multiple of the index size apart — a stride the trace's sender chooses —
// would share one probe chain.
func (a *addrIndex) hash(k int32) uint32 {
	return uint32(uint64(uint32(k))*0x9E3779B97F4A7C15>>32) & a.mask
}

func (a *addrIndex) get(k int32) (int, bool) {
	for i := a.hash(k); ; i = (i + 1) & a.mask {
		switch a.keys[i] {
		case k:
			return int(a.vals[i]), true
		case -1:
			return 0, false
		}
	}
}

// put inserts or updates k. The caller keeps the live-row count at or
// below Nentry, far under the array size, so the probe loop terminates.
func (a *addrIndex) put(k int32, v int) {
	for i := a.hash(k); ; i = (i + 1) & a.mask {
		switch a.keys[i] {
		case k:
			a.vals[i] = int32(v)
			return
		case -1:
			a.keys[i], a.vals[i] = k, int32(v)
			a.n++
			return
		}
	}
}

func (a *addrIndex) del(k int32) {
	i := a.hash(k)
	for ; ; i = (i + 1) & a.mask {
		if a.keys[i] == k {
			break
		}
		if a.keys[i] == -1 {
			return
		}
	}
	a.keys[i] = -1
	a.n--
	// Backward-shift: walk the rest of the probe chain and pull every
	// element whose home position precedes the hole back into it, keeping
	// all chains gap-free without tombstones.
	for j := (i + 1) & a.mask; a.keys[j] != -1; j = (j + 1) & a.mask {
		if h := a.hash(a.keys[j]); (j-h)&a.mask >= (j-i)&a.mask {
			a.keys[i], a.vals[i] = a.keys[j], a.vals[j]
			a.keys[j] = -1
			i = j
		}
	}
}
