package trace

import (
	"testing"
)

func TestFromSliceReplaysInOrder(t *testing.T) {
	acc := []Access{{Bank: 0, Row: 1}, {Bank: 1, Row: 2}, {Bank: 0, Row: 3}}
	g := FromSlice("x", acc)
	if g.Name() != "x" {
		t.Errorf("Name = %q", g.Name())
	}
	got := Collect(g)
	if len(got) != 3 {
		t.Fatalf("collected %d, want 3", len(got))
	}
	for i := range acc {
		if got[i] != acc[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], acc[i])
		}
	}
	// Exhausted generator keeps returning ok=false.
	if _, ok := g.Next(); ok {
		t.Error("exhausted generator returned ok")
	}
}
