package remap

import (
	"testing"
	"testing/quick"
)

func TestXORBijection(t *testing.T) {
	m, err := XOR(256, 0x5A)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for l := 0; l < 256; l++ {
		p := m.ToPhysical(l)
		if p < 0 || p >= 256 {
			t.Fatalf("physical %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("physical %d hit twice", p)
		}
		seen[p] = true
		if m.ToLogical(p) != l {
			t.Fatalf("round trip failed for %d", l)
		}
	}
}

func TestXORRejectsBadArgs(t *testing.T) {
	if _, err := XOR(100, 3); err == nil {
		t.Error("accepted non-power-of-two rows")
	}
	if _, err := XOR(128, 128); err == nil {
		t.Error("accepted mask out of range")
	}
	if _, err := XOR(128, -1); err == nil {
		t.Error("accepted negative mask")
	}
}

func TestXORBreaksAdjacency(t *testing.T) {
	// The point of the model: logical neighbors are not physical
	// neighbors. With mask 0b100, rows 3 and 4 map 8 apart.
	m, err := XOR(64, 0b100)
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToPhysical(4) - m.ToPhysical(3)
	if d == 1 || d == -1 {
		t.Errorf("logical neighbors stayed physically adjacent (Δ=%d)", d)
	}
}

func TestPermutationBijection(t *testing.T) {
	m, err := Permutation(1024, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for l := 0; l < 1024; l++ {
		p := m.ToPhysical(l)
		if seen[p] {
			t.Fatalf("physical %d hit twice", p)
		}
		seen[p] = true
		if m.ToLogical(p) != l {
			t.Fatalf("round trip failed for %d", l)
		}
	}
	if _, err := Permutation(0, 1); err == nil {
		t.Error("accepted 0 rows")
	}
}

func TestPermutationDeterministicBySeed(t *testing.T) {
	a, _ := Permutation(512, 9)
	b, _ := Permutation(512, 9)
	c, _ := Permutation(512, 10)
	same := true
	for l := 0; l < 512; l++ {
		if a.ToPhysical(l) != b.ToPhysical(l) {
			t.Fatalf("same seed diverged at %d", l)
		}
		if a.ToPhysical(l) != c.ToPhysical(l) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical permutations")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	perm, _ := Permutation(4096, 3)
	xor, _ := XOR(4096, 0xABC)
	f := func(v uint16) bool {
		l := int(v) % 4096
		return perm.ToLogical(perm.ToPhysical(l)) == l &&
			xor.ToLogical(xor.ToPhysical(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	x, _ := XOR(8, 5)
	p, _ := Permutation(8, 2)
	if x.Name() != "xor-0x5" || p.Name() != "perm-2" {
		t.Errorf("names: %q %q", x.Name(), p.Name())
	}
}
