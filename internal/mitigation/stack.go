package mitigation

import (
	"fmt"
	"strings"

	"graphene/internal/dram"
)

// Stack composes several mitigators into one: every layer observes every
// ACT and every REF tick, and their victim refreshes are concatenated.
// It models defense in depth, which is how real systems deploy Row Hammer
// protection — e.g. a vendor TRR sampler inside the device underneath a
// Graphene engine in the memory controller. A stack is sound if any layer
// is sound; its cost is the sum of the layers' costs.
type Stack struct {
	layers []Mitigator
}

// NewStack builds a stack over the given layers (at least one).
func NewStack(layers ...Mitigator) (*Stack, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("mitigation: stack needs at least one layer")
	}
	for i, l := range layers {
		if l == nil {
			return nil, fmt.Errorf("mitigation: stack layer %d is nil", i)
		}
	}
	return &Stack{layers: layers}, nil
}

var _ Mitigator = (*Stack)(nil)

// Name implements Mitigator: the layer names joined with "+".
func (s *Stack) Name() string {
	names := make([]string, len(s.layers))
	for i, l := range s.layers {
		names[i] = l.Name()
	}
	return strings.Join(names, "+")
}

// Layers returns the composed mitigators, outermost first.
func (s *Stack) Layers() []Mitigator { return append([]Mitigator(nil), s.layers...) }

// AppendOnActivate implements Mitigator: every layer appends into the same
// caller buffer in layer order — no per-layer slice, no concatenation.
func (s *Stack) AppendOnActivate(dst []VictimRefresh, row int, now dram.Time) []VictimRefresh {
	for _, l := range s.layers {
		dst = l.AppendOnActivate(dst, row, now)
	}
	return dst
}

// AppendOnActivateBatch implements Mitigator. Composition quantizes the
// batch to single ACTs: appends from different layers must interleave in
// ACT order (layer B's trigger at ACT 3 ends the run before layer A ever
// sees ACT 4), and scheme state cannot be unwound, so no layer may consume
// ahead of the stack's own stop index. The stack therefore walks the run
// one ACT at a time, fanning each ACT to every layer exactly as the scalar
// path does — the surrounding controller batch (event-horizon slicing,
// columnar feed, batched bank accounting) still applies.
// A dwell column is preserved: each single-ACT fan-out goes through the
// layer's own batch entry point with a one-element dwell slice, so
// dwell-aware layers see the duration and dwell-unaware ones drop it.
func (s *Stack) AppendOnActivateBatch(dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int) {
	layers := s.layers
	for i, r := range rows {
		pre := len(dst)
		if dwell == nil {
			for _, l := range layers {
				dst = l.AppendOnActivate(dst, int(r), now[i])
			}
		} else {
			for _, l := range layers {
				dst, _ = l.AppendOnActivateBatch(dst, rows[i:i+1], now[i:i+1], dwell[i:i+1])
			}
		}
		if len(dst) > pre {
			return dst, i + 1
		}
	}
	return dst, len(rows)
}

// AppendTick implements Mitigator.
func (s *Stack) AppendTick(dst []VictimRefresh, now dram.Time) []VictimRefresh {
	for _, l := range s.layers {
		dst = l.AppendTick(dst, now)
	}
	return dst
}

// Cost implements Mitigator: the sum over layers.
func (s *Stack) Cost() HardwareCost {
	var c HardwareCost
	for _, l := range s.layers {
		lc := l.Cost()
		c.Entries += lc.Entries
		c.CAMBits += lc.CAMBits
		c.SRAMBits += lc.SRAMBits
	}
	return c
}

// StackFactory composes per-bank factories into a stack factory.
func StackFactory(factories ...Factory) Factory {
	return func() (Mitigator, error) {
		layers := make([]Mitigator, 0, len(factories))
		for i, f := range factories {
			if f == nil {
				return nil, fmt.Errorf("mitigation: stack factory %d is nil", i)
			}
			m, err := f()
			if err != nil {
				return nil, err
			}
			layers = append(layers, m)
		}
		s, err := NewStack(layers...)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}
