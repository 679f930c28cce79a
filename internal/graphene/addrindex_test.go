package graphene

import "testing"

// TestAddrIndexStrideProbes inserts Nentry rows a power-of-two stride apart,
// for every stride from 2^0 to 2^20 (a 1M-row bank), and bounds the longest
// probe a lookup walks. A hash that kept the product's low bits put every
// row of a stride at or above the index size on one chain, so a lookup
// walked up to Nentry slots.
func TestAddrIndexStrideProbes(t *testing.T) {
	const maxProbe = 8
	for _, nentry := range []int{108, 326, 680} {
		for s := 0; s <= 20; s++ {
			a := newAddrIndex(nentry)
			for k := 0; k < nentry; k++ {
				a.put(int32(k<<s), k)
			}
			longest := 0
			for k := 0; k < nentry; k++ {
				key, probes := int32(k<<s), 1
				for i := a.hash(key); a.keys[i] != key; i = (i + 1) & a.mask {
					probes++
				}
				longest = max(longest, probes)
			}
			if longest > maxProbe {
				t.Errorf("Nentry %d, stride 2^%d: longest probe %d slots, want ≤ %d", nentry, s, longest, maxProbe)
			}
		}
	}
}
