package mitigation

import (
	"bytes"
	"fmt"
	"testing"

	"graphene/internal/dram"
)

// scriptedMit replays a fixed victim-refresh script: call i (ACT or tick,
// interleaved in call order) appends script[i] refreshes. It lets the fuzzer
// drive Stack with arbitrary per-layer output shapes, including layers that
// stay silent and layers that emit several refreshes per call.
type scriptedMit struct {
	name   string
	script [][]VictimRefresh
	call   int
}

func (m *scriptedMit) take() []VictimRefresh {
	if m.call >= len(m.script) {
		return nil
	}
	out := m.script[m.call]
	m.call++
	return out
}

func (m *scriptedMit) Name() string { return m.name }
func (m *scriptedMit) AppendOnActivate(dst []VictimRefresh, row int, now dram.Time) []VictimRefresh {
	return append(dst, m.take()...)
}
func (m *scriptedMit) AppendTick(dst []VictimRefresh, now dram.Time) []VictimRefresh {
	return append(dst, m.take()...)
}
func (m *scriptedMit) AppendOnActivateBatch(dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int) {
	return ScalarBatch(m, dst, rows, now, dwell)
}
func (m *scriptedMit) Cost() HardwareCost { return HardwareCost{} }

// buildScripted decodes one layer's script from the fuzz payload: each call
// consumes one count byte (0-3 refreshes) and one byte per refresh that
// picks the aggressor (or, every fourth value, an explicit row list).
func buildScripted(name string, data []byte, calls int) *scriptedMit {
	m := &scriptedMit{name: name, script: make([][]VictimRefresh, calls)}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	for c := 0; c < calls; c++ {
		n := int(next() % 4)
		for i := 0; i < n; i++ {
			v := next()
			if v%4 == 0 {
				m.script[c] = append(m.script[c], VictimRefresh{Rows: []int{int(v), int(v) + 1}})
			} else {
				m.script[c] = append(m.script[c], VictimRefresh{Aggressor: int(v), Distance: 1 + int(v%3)})
			}
		}
	}
	return m
}

// FuzzStackAppend pins Stack's append semantics against the naive
// reference — per-layer slices concatenated after a caller-owned prefix.
// It checks the three clauses of the API v2 contract (DESIGN.md §9): the
// prefix survives untouched, appended refreshes arrive in layer order, and
// the same dst handed through a recycled buffer gives the same answer as
// fresh nil-dst calls.
func FuzzStackAppend(f *testing.F) {
	f.Add([]byte{1, 5, 2, 8, 12, 0, 3, 4, 9, 16}, uint8(2), uint8(3), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(0))
	f.Add([]byte{3, 1, 2, 3, 3, 4, 5, 6, 3, 7, 8, 9}, uint8(3), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nlayers, calls, prefixLen uint8) {
		layers := int(nlayers%4) + 1
		ncalls := int(calls%8) + 1

		// Two identical sets of scripted layers: one inside the Stack under
		// test, one driven directly by the reference concatenation.
		stacked := make([]Mitigator, layers)
		direct := make([]*scriptedMit, layers)
		for i := range stacked {
			name := fmt.Sprintf("l%d", i)
			sm := buildScripted(name, data, ncalls)
			stacked[i] = sm
			direct[i] = buildScripted(name, data, ncalls)
		}
		s, err := NewStack(stacked...)
		if err != nil {
			t.Fatal(err)
		}

		// A recognizable prefix the stack must never disturb.
		prefix := make([]VictimRefresh, int(prefixLen%5))
		for i := range prefix {
			prefix[i] = VictimRefresh{Aggressor: -100 - i, Distance: 9}
		}

		dst := append([]VictimRefresh(nil), prefix...)
		for c := 0; c < ncalls; c++ {
			now := dram.Time(c) * 45 * dram.Nanosecond
			// Reference: prefix already in place, then each layer's output
			// concatenated in layer order.
			want := append([]VictimRefresh(nil), dst...)
			for _, d := range direct {
				if c%2 == 0 {
					want = append(want, d.AppendOnActivate(nil, c, now)...)
				} else {
					want = append(want, d.AppendTick(nil, now)...)
				}
			}
			if c%2 == 0 {
				dst = s.AppendOnActivate(dst, c, now)
			} else {
				dst = s.AppendTick(dst, now)
			}
			if !equalVRs(dst, want) {
				t.Fatalf("call %d: stack produced %v, reference %v", c, dst, want)
			}
		}
		for i, p := range prefix {
			if !equalVR(dst[i], p) {
				t.Fatalf("prefix entry %d clobbered: %v", i, dst[i])
			}
		}
	})
}

func equalVR(a, b VictimRefresh) bool {
	return a.Aggressor == b.Aggressor && a.Distance == b.Distance && bytes.Equal(rowsKey(a.Rows), rowsKey(b.Rows))
}

func equalVRs(a, b []VictimRefresh) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalVR(a[i], b[i]) {
			return false
		}
	}
	return true
}

func rowsKey(rows []int) []byte {
	out := make([]byte, 0, 8*len(rows))
	for _, r := range rows {
		out = fmt.Appendf(out, "%d,", r)
	}
	return out
}
