package mitigation

import (
	"testing"

	"graphene/internal/dram"
)

// fakeMit is a scripted mitigator for stack tests.
type fakeMit struct {
	name      string
	onAct     []VictimRefresh
	onTick    []VictimRefresh
	cost      HardwareCost
	actsSeen  int
	ticksSeen int
}

func (f *fakeMit) Name() string { return f.name }
func (f *fakeMit) AppendOnActivate(dst []VictimRefresh, row int, now dram.Time) []VictimRefresh {
	f.actsSeen++
	return append(dst, f.onAct...)
}
func (f *fakeMit) AppendTick(dst []VictimRefresh, now dram.Time) []VictimRefresh {
	f.ticksSeen++
	return append(dst, f.onTick...)
}
func (f *fakeMit) AppendOnActivateBatch(dst []VictimRefresh, rows []int32, now, dwell []dram.Time) ([]VictimRefresh, int) {
	return ScalarBatch(f, dst, rows, now, dwell)
}
func (f *fakeMit) Cost() HardwareCost { return f.cost }

func TestStackFansOutAndMerges(t *testing.T) {
	a := &fakeMit{name: "a", onAct: []VictimRefresh{{Aggressor: 1, Distance: 1}}, cost: HardwareCost{CAMBits: 10}}
	b := &fakeMit{name: "b", onTick: []VictimRefresh{{Rows: []int{9}}}, cost: HardwareCost{SRAMBits: 20, Entries: 2}}
	s, err := NewStack(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "a+b" {
		t.Errorf("Name = %q", s.Name())
	}
	vrs := s.AppendOnActivate(nil, 5, 0)
	if len(vrs) != 1 || vrs[0].Aggressor != 1 {
		t.Errorf("AppendOnActivate merged %v", vrs)
	}
	if a.actsSeen != 1 || b.actsSeen != 1 {
		t.Error("not every layer observed the ACT")
	}
	tvrs := s.AppendTick(nil, 0)
	if len(tvrs) != 1 || !tvrs[0].Explicit() {
		t.Errorf("AppendTick merged %v", tvrs)
	}
	c := s.Cost()
	if c.CAMBits != 10 || c.SRAMBits != 20 || c.Entries != 2 {
		t.Errorf("Cost = %+v", c)
	}
	if got := len(s.Layers()); got != 2 {
		t.Errorf("Layers = %d", got)
	}
}

func TestNewStackRejectsBadLayers(t *testing.T) {
	if _, err := NewStack(); err == nil {
		t.Error("accepted empty stack")
	}
	if _, err := NewStack(nil); err == nil {
		t.Error("accepted nil layer")
	}
}

func TestStackFactory(t *testing.T) {
	mkA := func() (Mitigator, error) { return &fakeMit{name: "x"}, nil }
	f := StackFactory(mkA, mkA)
	m, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "x+x" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, err := StackFactory(nil)(); err == nil {
		t.Error("accepted nil factory")
	}
}
