// Package trace defines the activation-stream vocabulary shared by the
// workload generators, the memory-controller simulator, and the tools: a
// trace is a finite sequence of row activations annotated with the bank
// they target and an optional think-time gap.
package trace

import "graphene/internal/dram"

// Access is one row activation request.
type Access struct {
	Bank int       // flat bank index in [0, dram.Geometry.Banks())
	Row  int       // row within the bank
	Gap  dram.Time // idle time the workload inserts before this access

	// Dwell is how long the activation holds its row open (the RowPress
	// tAggOn). Zero means the device minimum (nRAS): the value every
	// pre-dwell trace implicitly carries, and the value under which the
	// duration-weighted disturbance model reduces exactly to the legacy
	// per-ACT model.
	Dwell dram.Time
}

// Generator produces a finite access stream. Generators are single-use;
// build a fresh one per simulation run.
type Generator interface {
	// Name identifies the workload (used in reports).
	Name() string
	// Next returns the next access; ok is false when the stream ends.
	Next() (a Access, ok bool)
}

// sliceGen replays a fixed access slice.
type sliceGen struct {
	name string
	acc  []Access
	i    int
}

// FromSlice returns a Generator replaying the given accesses.
func FromSlice(name string, acc []Access) Generator {
	return &sliceGen{name: name, acc: acc}
}

func (g *sliceGen) Name() string { return g.name }

func (g *sliceGen) Next() (Access, bool) {
	if g.i >= len(g.acc) {
		return Access{}, false
	}
	a := g.acc[g.i]
	g.i++
	return a, true
}

// funcGen adapts a closure into a Generator.
type funcGen struct {
	name string
	next func() (Access, bool)
}

// FromFunc returns a Generator drawing accesses from next.
func FromFunc(name string, next func() (Access, bool)) Generator {
	return &funcGen{name: name, next: next}
}

func (g *funcGen) Name() string         { return g.name }
func (g *funcGen) Next() (Access, bool) { return g.next() }

// Collect drains g into a slice (tests and small tools only).
func Collect(g Generator) []Access {
	var out []Access
	for {
		a, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}
