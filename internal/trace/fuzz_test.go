package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFrom hardens the trace parser: arbitrary input must either parse
// cleanly or return an error — never panic — and whatever parses must
// survive a write/read round trip.
func FuzzReadFrom(f *testing.F) {
	f.Add("# trace x\n0 5 0\n1 6 100\n")
	f.Add("0 5")
	f.Add("")
	f.Add("# only comments\n\n#\n")
	f.Add("999999999999999999999 2 3\n")
	f.Add("0 5 10 junk\n")
	f.Add("\n# trace late header\n0 1 2\n")
	f.Add("# c\n# trace name\n0 1 2\n")
	f.Fuzz(func(t *testing.T, src string) {
		gen, err := ReadFrom(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		accs := Collect(gen)
		name := gen.Name()
		for _, a := range accs {
			if a.Bank < 0 || a.Row < 0 || a.Gap < 0 {
				t.Fatalf("parser admitted negative field: %+v", a)
			}
		}
		// Round trip.
		var sb strings.Builder
		n, err := WriteTo(&sb, FromSlice("rt", accs))
		if err != nil || n != int64(len(accs)) {
			t.Fatalf("write failed: n=%d err=%v", n, err)
		}
		back, err := ReadFrom(strings.NewReader(sb.String()), "rt")
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		got := Collect(back)
		if len(got) != len(accs) {
			t.Fatalf("round trip changed length: %d vs %d", len(got), len(accs))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("round trip changed access %d: %+v vs %+v", i, got[i], accs[i])
			}
		}

		// Binary↔text equivalence: whatever the text reference parses, the
		// binary codec must reproduce — name, length, and exact global order.
		// (A text header line can exceed the binary name limit; clamp, since
		// the name is not what this target is about.)
		if len(name) > MaxNameLen {
			name = name[:MaxNameLen]
		}
		var bb bytes.Buffer
		if _, err := WriteBinary(&bb, FromSlice(name, accs)); err != nil {
			t.Fatalf("WriteBinary rejected text-parsed trace: %v", err)
		}
		tr, err := ReadBinary(bytes.NewReader(bb.Bytes()))
		if err != nil {
			t.Fatalf("ReadBinary failed on own output: %v", err)
		}
		if tr.Name != name {
			t.Fatalf("binary round trip changed name: %q vs %q", tr.Name, name)
		}
		if len(tr.Accs) != len(accs) {
			t.Fatalf("binary round trip changed length: %d vs %d", len(tr.Accs), len(accs))
		}
		for i := range tr.Accs {
			if tr.Accs[i] != accs[i] {
				t.Fatalf("binary round trip changed access %d: %+v vs %+v", i, tr.Accs[i], accs[i])
			}
		}
		// The block reader's per-bank partition must match the reference's.
		got2, err := nextColsByBank(bb.Bytes())
		if err != nil {
			t.Fatalf("BlockReader.NextCols: %v", err)
		}
		sameByBank(t, got2, byBank(accs))
	})
}

// FuzzBinaryReader hardens the binary decoder: arbitrary bytes after the
// magic must either decode cleanly or error — never panic or over-allocate
// — and whatever decodes must re-encode to an equivalent trace, whose own
// re-encoding is the same bytes: the writer is a function of the access
// stream. The block decoder must agree: NextCols accepts exactly the
// streams ReadBinary accepts, with ReadBinary's accesses as its per-bank
// columns.
func FuzzBinaryReader(f *testing.F) {
	seed := func(accs []Access) []byte {
		var bb bytes.Buffer
		if _, err := WriteBinary(&bb, FromSlice("seed", accs)); err != nil {
			f.Fatal(err)
		}
		return bb.Bytes()
	}
	f.Add(seed(nil))
	f.Add(seed([]Access{{Bank: 0, Row: 1, Gap: 2}}))
	f.Add(seed([]Access{{Bank: 1, Row: 9, Gap: 0}, {Bank: 0, Row: 3, Gap: 5}, {Bank: 1, Row: 9, Gap: 5}}))
	f.Add(seed([]Access{{Bank: 0, Row: 1, Gap: 2, Dwell: 31700}}))
	f.Add(seed([]Access{{Bank: 0, Row: 1, Gap: 2, Dwell: 63400}, {Bank: 1, Row: 2, Gap: 3}, {Bank: 0, Row: 1, Gap: 0, Dwell: 1}}))
	f.Add([]byte("RHTB1\n"))
	f.Add([]byte("RHTB1\n\x00\x00\x00"))
	f.Add([]byte("RHTB2\n"))
	f.Add([]byte("RHTB2\n\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		cols, colsErr := nextColsByBank(data)
		if (err == nil) != (colsErr == nil) {
			t.Fatalf("ReadBinary err = %v, NextCols err = %v", err, colsErr)
		}
		if err != nil {
			return
		}
		sameByBank(t, cols, byBank(tr.Accs))
		var bb bytes.Buffer
		if _, err := WriteBinary(&bb, tr.Generator()); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(bb.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Name != tr.Name || len(back.Accs) != len(tr.Accs) {
			t.Fatalf("re-round-trip changed shape: (%q, %d) vs (%q, %d)", back.Name, len(back.Accs), tr.Name, len(tr.Accs))
		}
		for i := range back.Accs {
			if back.Accs[i] != tr.Accs[i] {
				t.Fatalf("re-round-trip changed access %d", i)
			}
		}
		var again bytes.Buffer
		if _, err := WriteBinary(&again, back.Generator()); err != nil {
			t.Fatalf("encode of re-decoded trace failed: %v", err)
		}
		if !bytes.Equal(again.Bytes(), bb.Bytes()) {
			t.Fatalf("re-encoding the re-decoded trace changed its bytes: %d vs %d", again.Len(), bb.Len())
		}
	})
}

// FuzzWriteName: hostile names must never corrupt the text format — the
// written stream must parse, carry the same accesses, and exactly one
// header line.
func FuzzWriteName(f *testing.F) {
	f.Add("plain")
	f.Add("evil\n7 7 7")
	f.Add("a\r\nb")
	f.Add("# trace imposter")
	f.Add("\n\n\n")
	f.Fuzz(func(t *testing.T, name string) {
		in := []Access{{Bank: 1, Row: 2, Gap: 3}, {Bank: 0, Row: 9, Gap: 0}}
		var sb strings.Builder
		if _, err := WriteTo(&sb, FromSlice(name, in)); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if got := strings.Count(sb.String(), "\n"); got != len(in)+1 {
			t.Fatalf("name %q injected lines: %d newlines, want %d", name, got, len(in)+1)
		}
		gen, err := ReadFrom(strings.NewReader(sb.String()), "fallback")
		if err != nil {
			t.Fatalf("written trace does not parse: %v", err)
		}
		out := Collect(gen)
		if len(out) != len(in) {
			t.Fatalf("name %q corrupted accesses: got %d, want %d", name, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("access %d: %+v vs %+v", i, out[i], in[i])
			}
		}
	})
}
