package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// drainBlocks runs a BlockReader to EOF through NextCols, returning the
// flattened accesses in block order (bank-major within each segment).
func drainBlocks(t *testing.T, br *BlockReader) []Access {
	t.Helper()
	var out []Access
	var cb ColBlock
	for {
		var err error
		cb, err = br.NextCols(cb)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("NextCols: %v", err)
		}
		for i := range cb.Rows {
			out = append(out, Access{Bank: cb.Bank, Row: int(cb.Rows[i]), Gap: cb.Gaps[i]})
		}
	}
}

// TestOnSegmentJournalRebuildsStream decodes a multi-segment trace with
// the OnSegment hook journaling raw payloads, then reconstructs the exact
// wire stream from AppendBinaryHeader + journaled segments + end marker
// and asserts the rebuilt stream decodes identically — the invariant the
// serve resume path depends on.
func TestOnSegmentJournalRebuildsStream(t *testing.T) {
	accs := mixedTrace(segmentAccs*3+77, 4, 11)
	data := encodeBinary(t, "journal", accs)

	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	br.OnSegment = func(p []byte) error {
		segs = append(segs, append([]byte(nil), p...))
		return nil
	}
	want := drainBlocks(t, br)
	if br.Segments() != len(segs) {
		t.Fatalf("Segments() = %d, hook fired %d times", br.Segments(), len(segs))
	}
	if len(segs) < 4 {
		t.Fatalf("expected >= 4 segments, got %d", len(segs))
	}
	if br.Decoded() != int64(len(accs)) {
		t.Fatalf("Decoded() = %d, want %d", br.Decoded(), len(accs))
	}

	rebuilt := AppendBinaryHeader(nil, br.Name(), br.Banks(), br.Total(), br.Version())
	for _, p := range segs {
		rebuilt = binary.AppendUvarint(rebuilt, uint64(len(p)))
		rebuilt = append(rebuilt, p...)
	}
	rebuilt = append(rebuilt, 0)
	if !bytes.Equal(rebuilt, data) {
		t.Fatalf("rebuilt stream differs from original: %d vs %d bytes", len(rebuilt), len(data))
	}

	br2, err := NewBlockReader(bytes.NewReader(rebuilt))
	if err != nil {
		t.Fatal(err)
	}
	got := drainBlocks(t, br2)
	if len(got) != len(want) {
		t.Fatalf("rebuilt decode: %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebuilt access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSkipBinaryPrefixSplicesWithJournal journals the first m segments via
// OnSegment, skips them on a fresh copy of the stream with
// SkipBinaryPrefix, and splices journal + remainder back together: the
// spliced stream must decode byte-identically to the original. This is
// end-to-end the resume hand-off — server replays the journal, client
// skips the same prefix and streams the rest.
func TestSkipBinaryPrefixSplicesWithJournal(t *testing.T) {
	accs := mixedTrace(segmentAccs*3+501, 3, 13)
	data := encodeBinary(t, "splice", accs)

	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drainBlocks(t, br)
	totalSegs := br.Segments()

	for _, skip := range []int{0, 1, totalSegs - 1, totalSegs} {
		// Journal the first `skip` segments from one copy of the stream.
		jr, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		journal := AppendBinaryHeader(nil, jr.Name(), jr.Banks(), jr.Total(), jr.Version())
		jr.OnSegment = func(p []byte) error {
			if jr.Segments() <= skip {
				journal = binary.AppendUvarint(journal, uint64(len(p)))
				journal = append(journal, p...)
			}
			return nil
		}
		drainBlocks(t, jr)

		// Skip the same prefix on another copy; splice journal + remainder.
		rest := bufio.NewReader(bytes.NewReader(data))
		if err := SkipBinaryPrefix(rest, skip); err != nil {
			t.Fatalf("skip=%d: SkipBinaryPrefix: %v", skip, err)
		}
		br2, err := NewBlockReader(io.MultiReader(bytes.NewReader(journal), rest))
		if err != nil {
			t.Fatalf("skip=%d: NewBlockReader: %v", skip, err)
		}
		got := drainBlocks(t, br2)
		if len(got) != len(want) {
			t.Fatalf("skip=%d: %d accesses, want %d", skip, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skip=%d: access %d = %+v, want %+v", skip, i, got[i], want[i])
			}
		}
	}
}

func TestSkipBinaryPrefixErrors(t *testing.T) {
	accs := mixedTrace(segmentAccs+100, 2, 17) // two segments
	data := encodeBinary(t, "skiperr", accs)

	// More segments than the stream holds: the end marker arrives first.
	r := bufio.NewReader(bytes.NewReader(data))
	if err := SkipBinaryPrefix(r, 5); err == nil || !strings.Contains(err.Error(), "resume needs") {
		t.Fatalf("over-skip error = %v", err)
	}

	// Truncated mid-segment.
	r = bufio.NewReader(bytes.NewReader(data[:len(data)/2]))
	if err := SkipBinaryPrefix(r, 2); err == nil {
		t.Fatal("truncated skip succeeded")
	} else if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated skip returned bare EOF: %v", err)
	}

	// Not a binary stream at all.
	r = bufio.NewReader(strings.NewReader("# trace text\n0 1 2\n"))
	if err := SkipBinaryPrefix(r, 0); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("text stream error = %v, want ErrNotBinary", err)
	}

	// A header the decoder would reject is rejected before any skip.
	hostile := append(AppendBinaryHeader(nil, "hostile", MaxBank+2, 0, 1), 0)
	r = bufio.NewReader(bytes.NewReader(hostile))
	if err := SkipBinaryPrefix(r, 0); err == nil || !strings.Contains(err.Error(), "banks exceeds limit") {
		t.Fatalf("oversized bank count error = %v", err)
	}
}

func TestOnSegmentErrorPoisonsReader(t *testing.T) {
	accs := mixedTrace(segmentAccs+50, 2, 19)
	data := encodeBinary(t, "poison", accs)
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("journal full")
	br.OnSegment = func(p []byte) error { return boom }
	var cb ColBlock
	for {
		cb, err = br.NextCols(cb)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("decode error = %v, want wrapped %v", err, boom)
	}
}

func TestAppendBinaryHeaderMatchesWriter(t *testing.T) {
	accs := []Access{{Bank: 2, Row: 9, Gap: 3}, {Bank: 0, Row: 1, Gap: 0}}
	data := encodeBinary(t, "hdr", accs)
	head := AppendBinaryHeader(nil, "hdr", 3, 2, 1)
	if !bytes.HasPrefix(data, head) {
		t.Fatalf("WriteBinary output does not start with AppendBinaryHeader bytes")
	}
}
