package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"graphene/internal/dram"
)

// mixedTrace builds a deterministic multi-bank trace with bursty bank
// runs, zero and large gaps, and rows jumping both directions — the
// shapes the delta encoder must survive.
func mixedTrace(n, banks int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	accs := make([]Access, 0, n)
	for len(accs) < n {
		bank := rng.Intn(banks)
		run := 1 + rng.Intn(5)
		for r := 0; r < run && len(accs) < n; r++ {
			acc := Access{Bank: bank, Row: rng.Intn(1 << 16)}
			switch rng.Intn(3) {
			case 0: // back-to-back
			case 1:
				acc.Gap = dram.Time(rng.Intn(100_000))
			default:
				acc.Gap = dram.Time(rng.Int63n(int64(1) << 40))
			}
			accs = append(accs, acc)
		}
	}
	return accs
}

func encodeBinary(t testing.TB, name string, accs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, FromSlice(name, accs))
	if err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if n != int64(len(accs)) {
		t.Fatalf("WriteBinary wrote %d accesses, want %d", n, len(accs))
	}
	return buf.Bytes()
}

// appendBlock appends blk's accesses to dst as Access structs.
func appendBlock(dst []Access, blk ColBlock) []Access {
	for i, r := range blk.Rows {
		a := Access{Bank: blk.Bank, Row: int(r), Gap: blk.Gaps[i]}
		if len(blk.Dwells) != 0 {
			a.Dwell = blk.Dwells[i]
		}
		dst = append(dst, a)
	}
	return dst
}

func TestBinaryRoundTripExactOrder(t *testing.T) {
	cases := map[string][]Access{
		"empty":       nil,
		"single":      {{Bank: 0, Row: 42, Gap: 7}},
		"single-bank": mixedTrace(5000, 1, 1),
		"multi-bank":  mixedTrace(20_000, 7, 2),
		"many-banks":  mixedTrace(3000, 64, 3),
		// More accesses than one segment holds: delta state and run
		// reconstruction must survive segment boundaries.
		"multi-segment": mixedTrace(segmentAccs*2+123, 5, 4),
	}
	for name, accs := range cases {
		t.Run(name, func(t *testing.T) {
			data := encodeBinary(t, "rt-"+name, accs)
			tr, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadBinary: %v", err)
			}
			if tr.Name != "rt-"+name {
				t.Errorf("name = %q, want %q", tr.Name, "rt-"+name)
			}
			if len(tr.Accs) != len(accs) {
				t.Fatalf("decoded %d accesses, want %d", len(tr.Accs), len(accs))
			}
			for i := range accs {
				if tr.Accs[i] != accs[i] {
					t.Fatalf("access %d = %+v, want %+v", i, tr.Accs[i], accs[i])
				}
			}
		})
	}
}

func TestBinaryPreservesHostileName(t *testing.T) {
	// The binary header is length-prefixed, so names the text format must
	// sanitize survive verbatim.
	name := "evil\n7 7 7\n# trace imposter"
	data := encodeBinary(t, name, []Access{{Bank: 0, Row: 1, Gap: 2}})
	tr, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != name {
		t.Errorf("name = %q, want %q", tr.Name, name)
	}
}

// dwelledTrace spans two segments: the first carries the dwell column
// (every third access holds its row open), the second is dwell-free, so
// its blocks must come back with empty Dwells.
func dwelledTrace() []Access {
	accs := mixedTrace(segmentAccs+5000, 3, 7)
	for i := 0; i < segmentAccs; i += 3 {
		accs[i].Dwell = dram.Time(1 + i%50_000)
	}
	return accs
}

// byBank splits accs into each bank's accesses, in order.
func byBank(accs []Access) map[int][]Access {
	m := map[int][]Access{}
	for _, a := range accs {
		m[a.Bank] = append(m[a.Bank], a)
	}
	return m
}

// sameByBank fails t at the first bank or access where got and want differ.
func sameByBank(t *testing.T, got, want map[int][]Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("blocks cover %d banks, want %d", len(got), len(want))
	}
	for bank, ws := range want {
		gs := got[bank]
		if len(gs) != len(ws) {
			t.Fatalf("bank %d: %d accesses, want %d", bank, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("bank %d access %d = %+v, want %+v", bank, i, gs[i], ws[i])
			}
		}
	}
}

// TestBlockReaderHeaderAndBlocks: the header is read eagerly, and NextCols
// reproduces exactly the per-bank partition of the generated stream, in
// per-bank order — the only order replay observes — including across
// segment boundaries, where per-bank delta state carries over, and through
// segments with and without the dwell column.
func TestBlockReaderHeaderAndBlocks(t *testing.T) {
	cases := []struct {
		name string
		accs []Access
	}{
		{"single-bank", mixedTrace(5000, 1, 1)},
		{"multi-bank", mixedTrace(20_000, 7, 2)},
		{"multi-segment", mixedTrace(segmentAccs*2+123, 5, 4)},
		{"dwell", dwelledTrace()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br, err := NewBlockReader(bytes.NewReader(encodeBinary(t, tc.name, tc.accs)))
			if err != nil {
				t.Fatal(err)
			}
			banks := 0
			for _, a := range tc.accs {
				banks = max(banks, a.Bank+1)
			}
			if br.Name() != tc.name || br.Banks() != banks || br.Total() != int64(len(tc.accs)) {
				t.Fatalf("header = (%q, %d, %d), want (%s, %d, %d)", br.Name(), br.Banks(), br.Total(), tc.name, banks, len(tc.accs))
			}
			got := map[int][]Access{}
			var buf ColBlock
			for {
				blk, err := br.NextCols(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("NextCols: %v", err)
				}
				n := len(blk.Rows)
				if n == 0 || len(blk.Gaps) != n || (len(blk.Dwells) != 0 && len(blk.Dwells) != n) {
					t.Fatalf("bank %d block: %d rows, %d gaps, %d dwells", blk.Bank, n, len(blk.Gaps), len(blk.Dwells))
				}
				got[blk.Bank] = appendBlock(got[blk.Bank], blk)
				buf = blk // recycled: NextCols reuses buf's columns
			}
			sameByBank(t, got, byBank(tc.accs))
			// After EOF the reader stays at EOF.
			if _, err := br.NextCols(ColBlock{}); err != io.EOF {
				t.Fatalf("post-EOF NextCols: %v", err)
			}
		})
	}
}

// TestNextColsMatchesNext pins the block decoder against the whole-trace
// decoder, the one that replaced the struct decoder Next: the blocks
// NextCols returns, concatenated per bank, are exactly ReadBinary's
// accesses of that bank, in order, whatever buffer each call is handed —
// the previous block, as the replay router recycles it, a zero ColBlock,
// or a stale one large enough for any block whose columns, dwells
// included, still hold other values. The two share decodeBlockCols but
// not the segment walk: NextCols checks each run list and drops it,
// ReadBinary applies it to rebuild global order. The name is historical:
// Next is gone, and ReadBinary is the reference NextCols now answers to.
func TestNextColsMatchesNext(t *testing.T) {
	cases := []struct {
		name string
		accs []Access
	}{
		{"single-bank", mixedTrace(5000, 1, 1)},
		{"multi-bank", mixedTrace(20_000, 7, 2)},
		{"multi-segment", mixedTrace(segmentAccs*2+123, 5, 4)},
		{"dwell", dwelledTrace()},
	}
	stale := ColBlock{
		Rows:   make([]int32, segmentAccs),
		Gaps:   make([]dram.Time, segmentAccs),
		Dwells: make([]dram.Time, segmentAccs),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeBinary(t, tc.name, tc.accs)
			tr, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadBinary: %v", err)
			}
			want := byBank(tr.Accs)
			for _, mode := range []string{"recycled", "zero", "stale"} {
				br, err := NewBlockReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				got := map[int][]Access{}
				var prev ColBlock
				for {
					var buf ColBlock
					switch mode {
					case "recycled":
						buf = prev
					case "stale":
						for i := range stale.Rows {
							stale.Rows[i], stale.Gaps[i], stale.Dwells[i] = -1, -1, -1
						}
						buf = stale
					}
					blk, err := br.NextCols(buf)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("%s: NextCols: %v", mode, err)
					}
					got[blk.Bank] = appendBlock(got[blk.Bank], blk)
					prev = blk
				}
				sameByBank(t, got, want)
			}
		})
	}
}

// TestNextColsPoolBuffersDoNotRegrow: replay recycles decode buffers
// through a FIFO pool shared by every bank (memctrl's block router holds
// banks × (blockDepth+1) + 1 of them), so one buffer carries blocks of
// different banks and segments, whose lengths on a uniform trace differ
// by a few dozen ACTs. One pass over a 16-bank uniform trace through a
// 49-buffer pool must grow no column of a buffer after that buffer's first
// use, and the segment payload no more than once.
func TestNextColsPoolBuffersDoNotRegrow(t *testing.T) {
	const banks, segments = 16, 12
	rng := rand.New(rand.NewSource(1))
	accs := make([]Access, segments*segmentAccs)
	for i := range accs {
		accs[i] = Access{Bank: rng.Intn(banks), Row: rng.Intn(1 << 16), Gap: 50 * dram.Nanosecond}
	}
	br, err := NewBlockReader(bytes.NewReader(encodeBinary(t, "uniform", accs)))
	if err != nil {
		t.Fatal(err)
	}
	// Start from an empty payload of the reader's own, not from a buffer
	// an earlier reader left in payloadFree, whose size this test does
	// not control.
	br.payload = []byte{}
	// Each buffer goes back to the end of the FIFO right after its block,
	// so the pool hands them out round robin.
	pool := make([]ColBlock, banks*3+1)
	blocks, regrown, payloadGrowths, payloadCap := 0, 0, 0, 0
	for ; ; blocks++ {
		b := blocks % len(pool)
		buf := pool[b]
		blk, err := br.NextCols(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if blocks >= len(pool) && (cap(blk.Rows) != cap(buf.Rows) || cap(blk.Gaps) != cap(buf.Gaps)) {
			regrown++
		}
		pool[b] = ColBlock{Rows: blk.Rows[:0], Gaps: blk.Gaps[:0], Dwells: blk.Dwells[:0]}
		if c := cap(br.payload); c != payloadCap {
			payloadGrowths++
			payloadCap = c
		}
	}
	if blocks != banks*segments {
		t.Fatalf("decoded %d blocks, want %d", blocks, banks*segments)
	}
	if regrown != 0 {
		t.Errorf("%d of %d block decodes regrew a recycled buffer, want 0", regrown, blocks)
	}
	if payloadGrowths > 1 {
		t.Errorf("segment payload grew %d times over %d segments, want once", payloadGrowths, segments)
	}
}

// decodeToEnd decodes data to the end, starting from payload when it is
// not nil, and returns the first byte of the payload array it decoded
// into. The reader must hold no payload after the end marker.
func decodeToEnd(data, payload []byte) (*byte, error) {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if payload != nil {
		br.payload = payload
	}
	var used *byte
	var blk ColBlock
	for err == nil {
		if blk, err = br.NextCols(blk); cap(br.payload) > 0 {
			used = &br.payload[:1][0]
		}
	}
	if err != io.EOF {
		return nil, err
	}
	if br.payload != nil {
		return nil, fmt.Errorf("reader still holds a %d-byte payload buffer after the end marker", cap(br.payload))
	}
	return used, nil
}

// drainPayloads empties payloadFree and reports whether it held the array
// at p. It fails t on a buffer over maxPooledPayload.
func drainPayloads(t *testing.T, p *byte) (found bool) {
	t.Helper()
	for {
		select {
		case b := <-payloadFree:
			if cap(b) > maxPooledPayload {
				t.Fatalf("free list holds a %d-byte payload buffer, limit %d", cap(b), maxPooledPayload)
			}
			found = found || &b[:1][0] == p
		default:
			return found
		}
	}
}

// TestPayloadPooledAtCleanEnd: a reader hands its payload buffer to
// payloadFree at the clean end marker and holds none afterwards, and a
// buffer over maxPooledPayload — only a stream with padded varints needs
// one — never reaches the free list.
func TestPayloadPooledAtCleanEnd(t *testing.T) {
	data := encodeBinary(t, "pooled", mixedTrace(2*segmentAccs, 4, 3))
	for _, payload := range [][]byte{make([]byte, 0, maxPooledPayload+1), nil} {
		used, err := decodeToEnd(data, payload)
		if err != nil {
			t.Fatal(err)
		}
		if found := drainPayloads(t, used); found != (payload == nil) {
			t.Errorf("starting from a %d-byte payload: buffer in the free list after the end marker = %v, want %v", cap(payload), found, !found)
		}
	}
}

// TestPayloadReusedAcrossCollections: the payload buffer outlives garbage
// collections and passes between goroutines, as it must for a daemon's
// sessions and for replays that each start from a collected heap. With a
// collection before each pass, every pass after the first, each on a
// goroutine of its own, decodes into the first pass's buffer.
func TestPayloadReusedAcrossCollections(t *testing.T) {
	data := encodeBinary(t, "reused", mixedTrace(2*segmentAccs, 4, 3))
	drainPayloads(t, nil)
	var first *byte
	for pass := 0; pass < 8; pass++ {
		runtime.GC()
		var used *byte
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			used, err = decodeToEnd(data, nil)
		}()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			first = used
		} else if used != first {
			t.Fatalf("pass %d decoded into a new payload buffer, not the first pass's", pass)
		}
	}
}

func TestBinaryRejectsTornTail(t *testing.T) {
	accs := mixedTrace(segmentAccs+500, 3, 5) // two segments
	data := encodeBinary(t, "torn", accs)
	// Every proper prefix must fail — never parse as a silently shorter
	// trace. Step through a spread of cut points including all short ones.
	cuts := []int{0, 1, 3, 5}
	for c := 6; c < len(data)-1; c += 997 {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, len(data)-1)
	for _, cut := range cuts {
		_, err := ReadBinary(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("accepted %d-byte prefix of %d-byte trace", cut, len(data))
		}
	}
	// The full stream still parses (the loop above must not be vacuous).
	if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
		t.Fatalf("full stream: %v", err)
	}
}

// TestNextColsRejectsTornTail: the block decoder applies the same torn-tail
// discipline as ReadBinary — a truncated stream is a non-EOF error, never
// a silently short trace.
func TestNextColsRejectsTornTail(t *testing.T) {
	data := encodeBinary(t, "torn", mixedTrace(50_000, 3, 5))
	for _, cut := range []int{len(data) - 1, len(data) * 2 / 3, len(data) / 3} {
		br, err := NewBlockReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		var buf ColBlock
		for {
			buf, err = br.NextCols(buf)
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut %d: torn tail decoded to clean EOF", cut)
		}
	}
}

func TestBinaryRejectsCorruptStream(t *testing.T) {
	base := encodeBinary(t, "x", mixedTrace(100, 2, 6))
	mut := func(mutate func(d []byte)) error {
		d := append([]byte(nil), base...)
		mutate(d)
		_, err := ReadBinary(bytes.NewReader(d))
		return err
	}
	if err := mut(func(d []byte) { d[0] = 'X' }); !errors.Is(err, ErrNotBinary) {
		t.Errorf("bad magic: %v, want ErrNotBinary", err)
	}
	// Flip a byte mid-segment: either a decode error or a run/total
	// mismatch, but never a clean parse of different data length... a
	// value flip CAN decode to different-but-valid accesses (no checksum),
	// so only assert it never panics and the strict validators still run.
	for i := len(binaryMagic); i < len(base); i += 7 {
		_ = mut(func(d []byte) { d[i] ^= 0x80 })
	}
}

// nextColsByBank drains data through NextCols, recycling each block's
// buffer as replay does, and returns every bank's accesses in order, or
// the first non-EOF error.
func nextColsByBank(data []byte) (map[int][]Access, error) {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	got := map[int][]Access{}
	var buf ColBlock
	for {
		blk, err := br.NextCols(buf)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return nil, err
		}
		got[blk.Bank] = appendBlock(got[blk.Bank], blk)
		buf = blk
	}
}

// handStream frames hand-built version-1 segment payloads behind a header
// naming banks banks and total accesses, and ends the stream.
func handStream(banks int, total int64, payloads ...[]byte) []byte {
	s := AppendBinaryHeader(nil, "hand", banks, total, 1)
	for _, p := range payloads {
		s = binary.AppendUvarint(s, uint64(len(p)))
		s = append(s, p...)
	}
	return append(s, 0)
}

// uv appends vs to dst as canonical uvarints.
func uv(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// cat concatenates byte slices into a new one.
func cat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

// TestBinaryRejectsMalformedSegment: both readers reject each malformed
// segment with a non-EOF error — NextCols as well as ReadBinary, although
// only ReadBinary uses the run list. Every case is one edit of a valid
// two-bank segment.
func TestBinaryRejectsMalformedSegment(t *testing.T) {
	// Two blocks: bank 0 with two accesses (rows 1, 1), bank 1 with one
	// (row 1), all at gap 0. Each block is bank, count, row deltas, gap
	// deltas; zigzag +1 is 2.
	bank0 := uv(nil, 0, 2, 2, 0, 0, 0)
	bank1 := uv(nil, 1, 1, 2, 0)
	blocks := cat(uv(nil, 2), bank0, bank1)
	runs := uv(nil, 3, 0, 1, 1, 1, 0, 1)
	// A 10-byte varint whose last byte carries bits past 64: binary.Uvarint
	// rejects it; read modulo 2⁶⁴ it would be 0.
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	// A first segment with a block for bank 2 only, so that bank has
	// decode state when the next segment, which has no block for it, runs.
	bank2 := uv(nil, 1, 2, 1, 2, 0, 1, 2, 1)

	if got, err := nextColsByBank(handStream(2, 3, cat(blocks, runs))); err != nil || len(got[0])+len(got[1]) != 3 {
		t.Fatalf("valid hand-built segment: %d+%d accesses, err %v", len(got[0]), len(got[1]), err)
	}
	cases := []struct {
		name string
		data []byte
		want string // error substring; empty accepts any error
	}{
		{"run for a bank without a block", handStream(3, 4, bank2, cat(blocks, uv(nil, 2, 0, 2, 2, 1))), ""},
		{"runs short of a block", handStream(2, 3, cat(blocks, uv(nil, 1, 0, 2))), ""},
		{"one bank over, one short", handStream(2, 3, cat(blocks, uv(nil, 2, 0, 1, 1, 2))), ""},
		{"zero-length run", handStream(2, 3, cat(blocks, uv(nil, 3, 0, 2, 1, 0, 1, 1))), ""},
		{"run bank beyond header", handStream(2, 3, cat(blocks, uv(nil, 2, 0, 2, 7, 1))), ""},
		{"zero run count", handStream(2, 3, cat(blocks, uv(nil, 0))), ""},
		{"trailing byte", handStream(2, 3, cat(blocks, runs, []byte{0})), ""},
		{"blocks out of bank order", handStream(2, 3, cat(uv(nil, 2), bank1, bank0, runs)), "out of order"},
		{"overlong row delta", handStream(2, 3, cat(uv(nil, 2, 0, 2), overlong, uv(nil, 0, 0, 0), bank1, runs)), ""},
		{"overlong run bank", handStream(2, 3, cat(blocks, uv(nil, 3), overlong, uv(nil, 1, 1, 1, 0, 1))), ""},
		{"truncated gap delta", handStream(2, 3, uv(nil, 2, 0, 2, 2, 0, 0)), "segment: truncated gap delta"},
		{"negative row", handStream(2, 3, cat(uv(nil, 2, 0, 2, 1, 0, 0, 0), bank1, runs)), "segment: row -1 out of range [0, 2147483647]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, rbErr := ReadBinary(bytes.NewReader(tc.data))
			_, ncErr := nextColsByBank(tc.data)
			for reader, err := range map[string]error{"ReadBinary": rbErr, "NextCols": ncErr} {
				if err == nil || err == io.EOF {
					t.Errorf("%s: err = %v, want a decode error", reader, err)
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: err = %v, want %q", reader, err, tc.want)
				}
			}
		})
	}
}

// TestUvarintAtMatchesBinaryUvarint: the payload varint decoder agrees
// with binary.Uvarint on value, length and rejection — truncated and
// overlong inputs included — for every varint length.
func TestUvarintAtMatchesBinaryUvarint(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0x80},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // MaxUint64
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // overflows
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	}
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 1 << 14, 1<<21 - 1, 1 << 35, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		enc := binary.AppendUvarint(nil, v)
		inputs = append(inputs, enc, enc[:len(enc)-1], append(enc, 0x55))
	}
	for _, in := range inputs {
		want, n := binary.Uvarint(in)
		got, next := uvarintAt(in, 0)
		if n <= 0 {
			if next >= 0 {
				t.Errorf("% x: uvarintAt = (%d, %d), binary.Uvarint rejects it", in, got, next)
			}
			continue
		}
		if got != want || next != n {
			t.Errorf("% x: uvarintAt = (%d, %d), binary.Uvarint = (%d, %d)", in, got, next, want, n)
		}
		// Decoding at an offset reads the same bytes.
		if got, next := uvarintAt(append([]byte{0xee}, in...), 1); got != want || next != n+1 {
			t.Errorf("% x at offset 1: uvarintAt = (%d, %d), want (%d, %d)", in, got, next, want, n+1)
		}
	}
}

func TestWriteBinaryRejectsOutOfRange(t *testing.T) {
	cases := map[string][]Access{
		"bank": {{Bank: MaxBank + 1, Row: 0}},
		"row":  {{Bank: 0, Row: MaxRow + 1}},
		"gap":  {{Bank: 0, Row: 0, Gap: -1}},
	}
	for name, accs := range cases {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, FromSlice("x", accs)); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: err = %v, want out-of-range", name, err)
		}
	}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, FromSlice(strings.Repeat("n", MaxNameLen+1), nil)); err == nil {
		t.Error("accepted over-long name")
	}
}

func TestReadAutoDetectsFormat(t *testing.T) {
	accs := mixedTrace(500, 3, 7)

	var text strings.Builder
	if _, err := WriteTo(&text, FromSlice("auto", accs)); err != nil {
		t.Fatal(err)
	}
	bin := encodeBinary(t, "auto", accs)

	for name, src := range map[string]io.Reader{
		"text":   strings.NewReader(text.String()),
		"binary": bytes.NewReader(bin),
	} {
		tr, err := ReadAuto(src, "fallback")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Name != "auto" || len(tr.Accs) != len(accs) {
			t.Fatalf("%s: (%q, %d accesses), want (auto, %d)", name, tr.Name, len(tr.Accs), len(accs))
		}
		for i := range accs {
			if tr.Accs[i] != accs[i] {
				t.Fatalf("%s: access %d = %+v, want %+v", name, i, tr.Accs[i], accs[i])
			}
		}
	}
}

// TestBinaryMatchesTextReader pins the two codecs to each other over a
// text fixture: parse text (reference), convert to binary, and require the
// binary reader to reproduce the reference stream exactly.
func TestBinaryMatchesTextReader(t *testing.T) {
	src := "# trace fixture\n0 5 0\n1 6 100\n1 7 0\n0 5 20\n2 70000 7800000\n"
	ref, err := ReadAll(strings.NewReader(src), "fb")
	if err != nil {
		t.Fatal(err)
	}
	data := encodeBinary(t, ref.Name, ref.Accs)
	tr, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != ref.Name || len(tr.Accs) != len(ref.Accs) {
		t.Fatalf("binary = (%q, %d), text = (%q, %d)", tr.Name, len(tr.Accs), ref.Name, len(ref.Accs))
	}
	for i := range ref.Accs {
		if tr.Accs[i] != ref.Accs[i] {
			t.Fatalf("access %d: binary %+v, text %+v", i, tr.Accs[i], ref.Accs[i])
		}
	}
}
