// Package remap models in-DRAM row-address remapping: vendors scramble the
// mapping between the row addresses the memory controller issues (logical)
// and the physical word-line order inside the mat (physical), e.g. for
// redundancy repair or layout reasons.
//
// Row Hammer physics acts on *physical* adjacency, while protection schemes
// observe *logical* addresses. The paper's §II-C uses this to break CBT's
// contiguity assumption: a counter covering a contiguous logical range does
// not cover a contiguous physical range, so refreshing "the range plus two
// boundary rows" misses true victims. Commands that name an aggressor (the
// NRR of §IV-A) are immune: the device itself resolves the physical
// neighbors.
package remap

import (
	"fmt"
	"math/rand"
)

// Remapper is a bijection between logical and physical row addresses.
type Remapper interface {
	Name() string
	Rows() int
	// ToPhysical maps the address the controller issues to the word line
	// the device drives.
	ToPhysical(logical int) int
	// ToLogical is the inverse of ToPhysical.
	ToLogical(physical int) int
}

// xorFold XORs a mask into the row address — a common, cheap scrambling.
type xorFold struct {
	rows int
	mask int
}

// XOR returns a mask-XOR mapping. rows must be a power of two and mask in
// [0, rows).
func XOR(rows, mask int) (Remapper, error) {
	if rows <= 0 || rows&(rows-1) != 0 {
		return nil, fmt.Errorf("remap: rows must be a positive power of two, got %d", rows)
	}
	if mask < 0 || mask >= rows {
		return nil, fmt.Errorf("remap: mask %d out of [0, %d)", mask, rows)
	}
	return xorFold{rows: rows, mask: mask}, nil
}

func (x xorFold) Name() string         { return fmt.Sprintf("xor-%#x", x.mask) }
func (x xorFold) Rows() int            { return x.rows }
func (x xorFold) ToPhysical(l int) int { return l ^ x.mask }
func (x xorFold) ToLogical(p int) int  { return p ^ x.mask }

// permutation is a seeded random bijection — the adversarial upper bound
// for schemes that assume contiguity.
type permutation struct {
	rows    int
	seed    int64
	toPhys  []int32
	toLogic []int32
}

// Permutation returns a random bijection derived from seed.
func Permutation(rows int, seed int64) (Remapper, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("remap: rows must be positive, got %d", rows)
	}
	p := &permutation{
		rows:    rows,
		seed:    seed,
		toPhys:  make([]int32, rows),
		toLogic: make([]int32, rows),
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(rows)
	for l, ph := range perm {
		p.toPhys[l] = int32(ph)
		p.toLogic[ph] = int32(l)
	}
	return p, nil
}

func (p *permutation) Name() string         { return fmt.Sprintf("perm-%d", p.seed) }
func (p *permutation) Rows() int            { return p.rows }
func (p *permutation) ToPhysical(l int) int { return int(p.toPhys[l]) }
func (p *permutation) ToLogical(ph int) int { return int(p.toLogic[ph]) }
