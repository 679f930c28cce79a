package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"graphene/internal/trace"
)

func TestBuildWorkloadNames(t *testing.T) {
	sc := testScale()
	sc.AdversarialWindows = 0.001
	for _, name := range AttackNames() {
		gen, attack, err := BuildWorkload(name, sc, 50000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !attack {
			t.Errorf("%s not flagged as attack", name)
		}
		if _, ok := gen.Next(); !ok {
			t.Errorf("%s produced no accesses", name)
		}
	}
	gen, attack, err := BuildWorkload("mcf", sc, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if attack {
		t.Error("mcf flagged as attack")
	}
	if gen.Name() != "mcf" {
		t.Errorf("Name = %q", gen.Name())
	}
	if _, _, err := BuildWorkload("nope", sc, 50000); err == nil {
		t.Error("accepted unknown workload")
	}
}

// TestAdversarialSuitePinned pins the §V-B attack suite: each pattern's
// generator name, length and an FNV-1a hash of its accesses, over 0.01
// windows at testScale, as AdversarialPatterns and BuildWorkload build it.
// The goldens replay their own S1 stream, so without this an edited
// argument would move the Fig. 8(b) and 9(c) sweeps unnoticed.
func TestAdversarialSuitePinned(t *testing.T) {
	sc := testScale()
	sc.AdversarialWindows = 0.01
	fingerprint := func(gen trace.Generator) (n int, sum uint64) {
		h := fnv.New64a()
		for a, ok := gen.Next(); ok; a, ok = gen.Next() {
			fmt.Fprintf(h, "%d %d %d %d\n", a.Bank, a.Row, a.Gap, a.Dwell)
			n++
		}
		return n, h.Sum64()
	}
	want := []struct {
		workload, name string
		n              int
		sum            uint64
	}{
		{"S1-10", "S1-N10", 13584, 0x71ee8abeb0a993d9},
		{"S1-20", "S1-N20", 13584, 0xe79e43f5f7cc543b},
		{"S2", "S2-N10", 13584, 0x632b609f6fc00c59},
		{"S3", "S3", 13584, 0x90614bb74ec3b7a5},
		{"S4", "S4", 13584, 0xd941ffb8f8aeb505},
	}
	pats := AdversarialPatterns(sc)
	if len(pats) != len(want) {
		t.Fatalf("%d patterns, want %d", len(pats), len(want))
	}
	for i, w := range want {
		built, _, err := BuildWorkload(w.workload, sc, 50000)
		if err != nil {
			t.Fatal(err)
		}
		for _, gen := range []trace.Generator{pats[i](), built} {
			name := gen.Name()
			if n, sum := fingerprint(gen); name != w.name || n != w.n || sum != w.sum {
				t.Errorf("%s: (%s, %d, %#x), want (%s, %d, %#x)", w.workload, name, n, sum, w.name, w.n, w.sum)
			}
		}
	}
}

func TestBuildSchemeNames(t *testing.T) {
	sc := testScale()
	for _, name := range SchemeNames() {
		factory, display, err := BuildScheme(name, 50000, 2, 1, sc.Geometry.RowsPerBank, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" {
			if factory != nil {
				t.Error("none returned a factory")
			}
			continue
		}
		if factory == nil {
			t.Fatalf("%s: nil factory", name)
		}
		m, err := factory()
		if err != nil {
			t.Fatalf("%s: factory: %v", name, err)
		}
		if m.Name() == "" || display == "" {
			t.Errorf("%s: empty names", name)
		}
	}
	if _, _, err := BuildScheme("nope", 50000, 2, 1, 64, sc); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestBuildSchemeDistancePropagates(t *testing.T) {
	sc := testScale()
	factory, _, err := BuildScheme("graphene", 50000, 2, 3, sc.Geometry.RowsPerBank, sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	// Drive the engine to a trigger and verify the refresh reach is ±3.
	var dist int
	for i := 0; i < 100_000; i++ {
		if vrs := m.AppendOnActivate(nil, 500, 0); len(vrs) > 0 {
			dist = vrs[0].Distance
			break
		}
	}
	if dist != 3 {
		t.Errorf("±3 scheme refreshed at distance %d", dist)
	}
}

func TestBuildSchemeErrorListsOptions(t *testing.T) {
	_, _, err := BuildScheme("bogus", 50000, 2, 1, 64, testScale())
	if err == nil || !strings.Contains(err.Error(), "graphene") {
		t.Errorf("error %v should list valid schemes", err)
	}
}
