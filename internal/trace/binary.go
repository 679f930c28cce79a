package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"graphene/internal/dram"
)

// Binary trace format (DESIGN.md §10, §13). The stream is:
//
//	magic    "RHTB1\n" or "RHTB2\n" (6 bytes; the digit is the version)
//	header   uvarint nameLen (≤ MaxNameLen), nameLen name bytes
//	         uvarint banks  (max bank index + 1; 0 for an empty trace)
//	         uvarint total  (access count)
//	segments repeated: uvarint payloadLen (> 0), payloadLen payload bytes
//	end      uvarint 0
//
// Each segment covers up to segmentAccs consecutive accesses of the
// stream and lays them out columnarly per bank:
//
//	uvarint flags             (version 2 only; bit 0 = dwell column,
//	                           any other bit set is an error)
//	uvarint nblocks (≥ 1)
//	nblocks × block, in strictly ascending bank order:
//	    uvarint bank, uvarint count (≥ 1)
//	    count × varint rowDelta   (zigzag; vs the bank's previous row,
//	                               starting at 0 at the stream head)
//	    count × varint gapDelta   (zigzag; vs the bank's previous gap)
//	    count × varint dwellDelta (only when the segment's dwell flag is
//	                               set; zigzag vs the bank's previous
//	                               dwell, which advances only across
//	                               dwell-carrying segments)
//	uvarint nruns (≥ 1)
//	nruns × (uvarint bank, uvarint runLen ≥ 1)
//
// The blocks carry everything replay needs — per-bank access order is the
// only order the timing model observes — so the block reader hands them
// to per-bank consumers without touching the run list. The runs record
// the original global interleaving as run-length-encoded bank indices, so
// ReadBinary reconstructs the exact access sequence and a text↔binary
// round trip is lossless. Delta state (previous row/gap per bank) runs
// across segment boundaries.
//
// Version 2 exists only to carry the open-row dwell column: the writer
// emits version 1 — byte-identical to the pre-dwell codec — whenever no
// access in the whole trace carries a dwell, so every existing trace
// file, golden, and resume journal stays valid byte-for-byte, and a v1
// reader can never silently misparse a v2 stream (the magic differs).
//
// Every field a hostile stream controls is bounded before allocation
// (name length, segment payload size, bank index), decoded values are
// checked against the shared limits in io.go, and the header's total must
// match the decoded count — so a torn or truncated tail is always an
// error, never a silently short trace.

var (
	binaryMagic   = []byte("RHTB1\n")
	binaryMagicV2 = []byte("RHTB2\n")
)

// segment flag bits (version 2).
const (
	segFlagDwell  = 1 << 0
	segFlagsKnown = segFlagDwell
)

const (
	// MaxNameLen bounds the stored trace name.
	MaxNameLen = 4096

	// segmentAccs is how many accesses the writer packs per segment: large
	// enough to amortize framing and give replay consumers full blocks,
	// small enough that one decoded segment stays a few hundred KB.
	segmentAccs = 1 << 16

	// maxSegmentBytes rejects absurd payload lengths before allocating.
	// The writer's segments encode ≤ segmentAccs accesses at ≤ 20 bytes
	// each plus framing, far under this.
	maxSegmentBytes = 16 << 20
)

// ErrNotBinary reports that a stream does not start with the binary
// magic; ReadAuto uses it to fall back to the text parser.
var ErrNotBinary = errors.New("trace: not a binary trace (magic mismatch)")

// IsBinary reports whether r's next bytes are a binary trace magic
// (either version), without consuming them. A stream shorter than the
// magic is not binary.
func IsBinary(r *bufio.Reader) bool {
	return binaryVersion(r) != 0
}

// binaryVersion peeks r's magic and returns the format version it names,
// or 0 when the stream is not a binary trace.
func binaryVersion(r *bufio.Reader) int {
	head, err := r.Peek(len(binaryMagic))
	switch {
	case err != nil:
		return 0
	case bytes.Equal(head, binaryMagic):
		return 1
	case bytes.Equal(head, binaryMagicV2):
		return 2
	}
	return 0
}

// binErrf wraps binary-codec errors with a uniform prefix.
func binErrf(format string, args ...any) error {
	return fmt.Errorf("trace: binary: "+format, args...)
}

// ---------------------------------------------------------------- writer

// binEncoder accumulates the stream segment by segment. Header fields
// (banks, total) — and the format version, which depends on whether any
// access anywhere carries a dwell — are only known once the generator is
// drained, so encoded segment payloads buffer in memory (a few bytes per
// access, unframed) and flush to the writer after the header with the
// version-appropriate framing.
type binEncoder struct {
	scratch []Access // current segment, arrival order
	body    []byte   // concatenated raw segment payloads so far
	segs    []encSeg // framing for each payload in body
	payload []byte   // reused per-segment encode buffer
	runsEnc []byte   // reused run-list encode buffer

	prevRow   []int64 // per-bank delta state, grown on demand
	prevGap   []int64
	prevDwell []int64 // advances only across dwell-carrying segments

	maxBank int
	total   int64
}

// encSeg frames one buffered segment payload: its byte length within body
// and its version-2 flags (0 in a trace that ends up version 1).
type encSeg struct {
	n     int
	flags uint64
}

// grow extends the per-bank delta-state arrays to cover bank.
func (e *binEncoder) grow(bank int) {
	for len(e.prevRow) <= bank {
		e.prevRow = append(e.prevRow, 0)
		e.prevGap = append(e.prevGap, 0)
		e.prevDwell = append(e.prevDwell, 0)
	}
}

func (e *binEncoder) add(a Access) {
	e.scratch = append(e.scratch, a)
	if a.Bank > e.maxBank {
		e.maxBank = a.Bank
	}
	e.total++
	if len(e.scratch) >= segmentAccs {
		e.flush()
	}
}

// flush encodes the scratch segment into body.
func (e *binEncoder) flush() {
	if len(e.scratch) == 0 {
		return
	}
	// A segment carries the dwell column iff any of its accesses has one;
	// a dwell-free segment of a dwell-carrying trace stays column-free
	// (and leaves the per-bank dwell delta state untouched).
	var flags uint64
	for _, a := range e.scratch {
		if a.Dwell != 0 {
			flags |= segFlagDwell
			break
		}
	}
	// Group per bank, preserving per-bank order.
	banks := map[int][]Access{}
	var order []int
	for _, a := range e.scratch {
		if _, ok := banks[a.Bank]; !ok {
			order = append(order, a.Bank)
		}
		banks[a.Bank] = append(banks[a.Bank], a)
	}
	sort.Ints(order)

	p := e.payload[:0]
	p = binary.AppendUvarint(p, uint64(len(order)))
	for _, bank := range order {
		e.grow(bank)
		col := banks[bank]
		p = binary.AppendUvarint(p, uint64(bank))
		p = binary.AppendUvarint(p, uint64(len(col)))
		for _, a := range col {
			p = binary.AppendVarint(p, int64(a.Row)-e.prevRow[bank])
			e.prevRow[bank] = int64(a.Row)
		}
		for _, a := range col {
			p = binary.AppendVarint(p, int64(a.Gap)-e.prevGap[bank])
			e.prevGap[bank] = int64(a.Gap)
		}
		if flags&segFlagDwell != 0 {
			for _, a := range col {
				p = binary.AppendVarint(p, int64(a.Dwell)-e.prevDwell[bank])
				e.prevDwell[bank] = int64(a.Dwell)
			}
		}
	}
	// Run-length encode the original interleaving into a side buffer (the
	// run count precedes the runs, and is only known afterwards).
	var runs int
	rb := e.runsEnc[:0]
	for i := 0; i < len(e.scratch); {
		j := i + 1
		for j < len(e.scratch) && e.scratch[j].Bank == e.scratch[i].Bank {
			j++
		}
		rb = binary.AppendUvarint(rb, uint64(e.scratch[i].Bank))
		rb = binary.AppendUvarint(rb, uint64(j-i))
		runs++
		i = j
	}
	e.runsEnc = rb
	p = binary.AppendUvarint(p, uint64(runs))
	p = append(p, rb...)

	e.body = append(e.body, p...)
	e.segs = append(e.segs, encSeg{n: len(p), flags: flags})
	e.payload = p[:0]
	e.scratch = e.scratch[:0]
}

// version returns the lowest format version that can carry the buffered
// segments: 2 iff any segment needs a flags word, else 1.
func (e *binEncoder) version() int {
	for _, s := range e.segs {
		if s.flags != 0 {
			return 2
		}
	}
	return 1
}

// writeSegments frames the buffered payloads for the given version and
// writes them to w. Version 1 framing is uvarint(len) + payload — the
// pre-dwell codec byte-for-byte; version 2 prefixes each payload with its
// flags word inside the frame.
func (e *binEncoder) writeSegments(w io.Writer, version int) error {
	var flagsBuf, headBuf [binary.MaxVarintLen64]byte
	off := 0
	for _, s := range e.segs {
		var head []byte
		if version >= 2 {
			flagsEnc := binary.AppendUvarint(flagsBuf[:0], s.flags)
			head = binary.AppendUvarint(headBuf[:0], uint64(s.n)+uint64(len(flagsEnc)))
			head = append(head, flagsEnc...)
		} else {
			head = binary.AppendUvarint(headBuf[:0], uint64(s.n))
		}
		if _, err := w.Write(head); err != nil {
			return err
		}
		if _, err := w.Write(e.body[off : off+s.n]); err != nil {
			return err
		}
		off += s.n
	}
	return nil
}

// WriteBinary drains gen into w in the binary trace format and returns
// the number of accesses written. The trace name is stored verbatim
// (length-prefixed, so unlike the text header it needs no sanitizing) but
// must fit MaxNameLen; every access must satisfy the shared limits.
func WriteBinary(w io.Writer, gen Generator) (int64, error) {
	name := gen.Name()
	if len(name) > MaxNameLen {
		return 0, binErrf("name is %d bytes, limit %d", len(name), MaxNameLen)
	}
	enc := &binEncoder{}
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if err := checkLimits(int64(a.Bank), int64(a.Row), int64(a.Gap)); err != nil {
			return 0, binErrf("access %d: %w", enc.total, err)
		}
		if err := checkDwell(int64(a.Dwell)); err != nil {
			return 0, binErrf("access %d: %w", enc.total, err)
		}
		enc.add(a)
	}
	enc.flush()

	banks := 0
	if enc.total > 0 {
		banks = enc.maxBank + 1
	}
	version := enc.version()
	head := AppendBinaryHeaderVersion(nil, name, banks, enc.total, version)
	if _, err := w.Write(head); err != nil {
		return 0, err
	}
	if err := enc.writeSegments(w, version); err != nil {
		return 0, err
	}
	if _, err := w.Write([]byte{0}); err != nil { // end marker
		return 0, err
	}
	return enc.total, nil
}

// AppendBinaryHeader appends the version-1 binary trace header — magic,
// length-prefixed name, bank count, access count, all canonical uvarints —
// to dst and returns it. It is the exact byte sequence WriteBinary puts
// before the first segment, exposed so a journaled session can reconstruct
// the prefix of a half-streamed trace without re-encoding any accesses
// (serve's resume path glues this header onto the journaled raw segments).
func AppendBinaryHeader(dst []byte, name string, banks int, total int64) []byte {
	return AppendBinaryHeaderVersion(dst, name, banks, total, 1)
}

// AppendBinaryHeaderVersion is AppendBinaryHeader for an explicit format
// version (1 or 2; anything else panics — the version comes from this
// package's own reader/writer, never from the wire). Resume journals
// record the version of the stream they journaled so the reconstructed
// header matches the spliced segment bytes.
func AppendBinaryHeaderVersion(dst []byte, name string, banks int, total int64, version int) []byte {
	switch version {
	case 1:
		dst = append(dst, binaryMagic...)
	case 2:
		dst = append(dst, binaryMagicV2...)
	default:
		panic(fmt.Sprintf("trace: binary header version %d (want 1 or 2)", version))
	}
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(banks))
	dst = binary.AppendUvarint(dst, uint64(total))
	return dst
}

// SkipBinaryPrefix consumes the binary header and the first n segments
// from r, validating magic and field limits but decoding nothing. It is
// the client half of session resume: after the server acknowledges m
// segments already replayed, the client skips header plus m segments and
// streams the remainder — raw length-prefixed segments and the end marker
// — from the same reader. A stream that ends (or hits the end marker)
// before n segments is an error: the resume handle promises at least that
// many.
func SkipBinaryPrefix(r *bufio.Reader, n int) error {
	if binaryVersion(r) == 0 {
		return ErrNotBinary
	}
	if _, err := r.Discard(len(binaryMagic)); err != nil {
		return binErrf("header: %w", err)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return binErrf("header: truncated name length: %w", noEOF(err))
	}
	if nameLen > MaxNameLen {
		return binErrf("header: name length %d exceeds limit %d", nameLen, MaxNameLen)
	}
	if _, err := r.Discard(int(nameLen)); err != nil {
		return binErrf("header: truncated name: %w", noEOF(err))
	}
	for _, what := range []string{"bank count", "access count"} {
		if _, err := binary.ReadUvarint(r); err != nil {
			return binErrf("header: truncated %s: %w", what, noEOF(err))
		}
	}
	for i := 0; i < n; i++ {
		segLen, err := binary.ReadUvarint(r)
		if err != nil {
			return binErrf("skip: truncated stream at segment %d: %w", i, noEOF(err))
		}
		if segLen == 0 {
			return binErrf("skip: stream carries %d segments, resume needs %d", i, n)
		}
		if segLen > maxSegmentBytes {
			return binErrf("segment of %d bytes exceeds limit %d", segLen, maxSegmentBytes)
		}
		if _, err := r.Discard(int(segLen)); err != nil {
			return binErrf("skip: truncated segment %d: %w", i, noEOF(err))
		}
	}
	return nil
}

// ---------------------------------------------------------------- reader

// segBlock records one decoded block of the current segment, for
// validating the segment's run list against its blocks.
type segBlock struct {
	bank  int
	count int64
}

// BlockReader streams a binary trace as per-bank blocks, skipping the
// global-order reconstruction — the ingest path for bank-parallel replay
// (memctrl.RunBlocks). The header is read eagerly, so Name, Banks, and
// Total are available before any block decodes; Banks in particular makes
// geometry auto-detection free, where the text format needs a full pass.
type BlockReader struct {
	src     *bufio.Reader
	name    string
	banks   int
	total   int64
	version int

	// OnSegment, when set, is called once per fully decoded and validated
	// segment with the raw payload bytes exactly as they appeared on the
	// wire (without the length prefix). The slice is only valid for the
	// duration of the call — the reader reuses the buffer for the next
	// segment. A non-nil error poisons the reader: the current decode call
	// fails with it and no further segments are delivered. serve uses this
	// to journal replayed segments for session resume and to pace partial
	// reports; the hook fires at the single point where a segment is known
	// complete, so a journaled segment is never a torn one.
	OnSegment func(payload []byte) error

	prevRow   []int64
	prevGap   []int64
	prevDwell []int64 // advances only across dwell-carrying segments

	payload     []byte // current segment bytes, reused
	off         int    // decode cursor within payload
	segOpen     bool   // a segment's run list is still pending
	segHasDwell bool   // current segment carries the dwell column
	blocksLeft  int    // blocks not yet returned from the current segment
	segAccs     int64  // accesses decoded from the current segment
	segBlocks   []segBlock
	consumed    []int64 // runList's per-bank accounting, reused across segments

	decoded  int64
	segments int
	done     bool
}

// NewBlockReader checks the magic and reads the header. A stream that
// does not start with the binary magic returns ErrNotBinary with nothing
// consumed beyond the peek (r is internally buffered; use ReadAuto for
// transparent fallback to the text parser).
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	src, ok := r.(*bufio.Reader)
	if !ok {
		src = bufio.NewReader(r)
	}
	version := binaryVersion(src)
	if version == 0 {
		return nil, ErrNotBinary
	}
	if _, err := src.Discard(len(binaryMagic)); err != nil {
		return nil, binErrf("header: %w", err)
	}
	nameLen, err := binary.ReadUvarint(src)
	if err != nil {
		return nil, binErrf("header: truncated name length: %w", noEOF(err))
	}
	if nameLen > MaxNameLen {
		return nil, binErrf("header: name length %d exceeds limit %d", nameLen, MaxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(src, name); err != nil {
		return nil, binErrf("header: truncated name: %w", noEOF(err))
	}
	banks, err := binary.ReadUvarint(src)
	if err != nil {
		return nil, binErrf("header: truncated bank count: %w", noEOF(err))
	}
	if banks > MaxBank+1 {
		return nil, binErrf("header: %d banks exceeds limit %d", banks, MaxBank+1)
	}
	total, err := binary.ReadUvarint(src)
	if err != nil {
		return nil, binErrf("header: truncated access count: %w", noEOF(err))
	}
	if total > 1<<62 {
		return nil, binErrf("header: absurd access count %d", total)
	}
	return &BlockReader{src: src, name: string(name), banks: int(banks), total: int64(total), version: version}, nil
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: every mid-stream
// EOF in the binary codec means a torn tail, and io.EOF must stay
// reserved for BlockReader.NextCols's clean end-of-trace.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Name returns the trace name stored in the header.
func (br *BlockReader) Name() string { return br.name }

// Version returns the stream's format version (1 = pre-dwell codec, 2 =
// segments may carry the open-row dwell column).
func (br *BlockReader) Version() int { return br.version }

// Banks returns the header's bank count (max bank index + 1).
func (br *BlockReader) Banks() int { return br.banks }

// Total returns the header's access count.
func (br *BlockReader) Total() int64 { return br.total }

// Decoded returns the number of accesses decoded so far.
func (br *BlockReader) Decoded() int64 { return br.decoded }

// Segments returns the number of segments fully decoded and validated so
// far (the count of OnSegment firings, whether or not the hook is set).
func (br *BlockReader) Segments() int { return br.segments }

// uvarint decodes an unsigned varint from the current payload.
func (br *BlockReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(br.payload[br.off:])
	if n <= 0 {
		return 0, binErrf("segment: truncated %s", what)
	}
	br.off += n
	return v, nil
}

// nextSegment reads the next segment payload, returning io.EOF on a clean
// end marker.
func (br *BlockReader) nextSegment() error {
	n, err := binary.ReadUvarint(br.src)
	if err != nil {
		return binErrf("truncated stream (missing end marker): %w", noEOF(err))
	}
	if n == 0 {
		if br.decoded != br.total {
			return binErrf("truncated stream: header promises %d accesses, segments carry %d", br.total, br.decoded)
		}
		return io.EOF
	}
	if n > maxSegmentBytes {
		return binErrf("segment of %d bytes exceeds limit %d", n, maxSegmentBytes)
	}
	br.payload = resize(br.payload, int(n))
	if _, err := io.ReadFull(br.src, br.payload); err != nil {
		return binErrf("truncated segment: %w", noEOF(err))
	}
	br.off = 0
	br.segHasDwell = false
	if br.version >= 2 {
		flags, err := br.uvarint("flags")
		if err != nil {
			return err
		}
		if flags&^uint64(segFlagsKnown) != 0 {
			return binErrf("segment: unknown flags %#x (decoder knows %#x)", flags, segFlagsKnown)
		}
		br.segHasDwell = flags&segFlagDwell != 0
	}
	nblocks, err := br.uvarint("block count")
	if err != nil {
		return err
	}
	if nblocks == 0 || nblocks > uint64(MaxBank)+1 {
		return binErrf("segment: bad block count %d", nblocks)
	}
	br.segOpen = true
	br.blocksLeft = int(nblocks)
	br.segAccs = 0
	br.segBlocks = br.segBlocks[:0]
	return nil
}

// blockHead parses and validates the bank/count header of the next block
// in the open segment, growing the per-bank delta state to cover the bank.
func (br *BlockReader) blockHead() (bank, count int, err error) {
	bank64, err := br.uvarint("bank")
	if err != nil {
		return 0, 0, err
	}
	if bank64 > MaxBank {
		return 0, 0, binErrf("segment: %w", checkLimits(int64(bank64), 0, 0))
	}
	bank = int(bank64)
	if bank >= br.banks {
		return 0, 0, binErrf("segment: block for bank %d, header has %d banks", bank, br.banks)
	}
	if n := len(br.segBlocks); n > 0 && br.segBlocks[n-1].bank >= bank {
		return 0, 0, binErrf("segment: bank %d out of order (blocks must ascend)", bank)
	}
	count64, err := br.uvarint("access count")
	if err != nil {
		return 0, 0, err
	}
	// The writer never packs more than segmentAccs accesses into one
	// segment; enforcing that here bounds what a hostile count field can
	// make the decoder allocate.
	if count64 == 0 || count64 > segmentAccs || br.segAccs+int64(count64) > segmentAccs {
		return 0, 0, binErrf("segment: bad block length %d (segment limit %d accesses)", count64, segmentAccs)
	}
	for len(br.prevRow) <= bank {
		br.prevRow = append(br.prevRow, 0)
		br.prevGap = append(br.prevGap, 0)
		br.prevDwell = append(br.prevDwell, 0)
	}
	return bank, int(count64), nil
}

// resize returns s at length n, reusing its array when it has room. A new
// array gets an eighth more capacity than asked for: replay recycles
// decode buffers across blocks and segments whose lengths differ by a few
// percent, and an exact fit would regrow on the next slightly longer one.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// blockDone records a fully decoded block in the segment accounting.
func (br *BlockReader) blockDone(bank, count int) {
	br.segBlocks = append(br.segBlocks, segBlock{bank: bank, count: int64(count)})
	br.blocksLeft--
	br.segAccs += int64(count)
	br.decoded += int64(count)
}

// ColBlock is one bank's slice of a segment in columnar layout: Rows[i] at
// Gaps[i] is the bank's i-th access of the block, in stream order. Rows fit
// int32 because the shared limits cap row addresses at MaxRow = 2³¹−1 —
// this is the layout the batched replay core consumes directly
// (memctrl's event-horizon loop and Mitigator.AppendOnActivateBatch), so
// block ingest never materializes per-access structs. All columns alias
// the buffer passed to NextCols.
//
// Dwells is the open-row duration column. It is present (len == count)
// only when the block's segment carries the dwell column; otherwise it is
// left empty — length zero, capacity preserved for recycling — and every
// access's dwell is the device default. Consumers branch on
// len(Dwells) != 0, never on nil.
type ColBlock struct {
	Bank   int
	Rows   []int32
	Gaps   []dram.Time
	Dwells []dram.Time
}

// NextCols decodes the next block into buf's columns (pass the zero
// ColBlock to allocate). It returns io.EOF after the end marker of a
// complete, length-consistent stream; a torn tail or any malformed field
// is a non-EOF error.
func (br *BlockReader) NextCols(buf ColBlock) (ColBlock, error) {
	if br.done {
		return ColBlock{}, io.EOF
	}
	for br.blocksLeft == 0 {
		if br.segOpen {
			// Finish the open segment: its run list must replay exactly
			// the blocks it came with.
			if _, err := br.runList(nil, false); err != nil {
				return ColBlock{}, err
			}
			continue
		}
		if err := br.nextSegment(); err != nil {
			if err == io.EOF {
				br.done = true
			}
			return ColBlock{}, err
		}
	}
	return br.decodeBlockCols(buf)
}

// decodeBlockCols decodes one block from the open segment into buf's
// columns.
func (br *BlockReader) decodeBlockCols(buf ColBlock) (ColBlock, error) {
	bank, count, err := br.blockHead()
	if err != nil {
		return ColBlock{}, err
	}
	rows := resize(buf.Rows, count)
	gaps := resize(buf.Gaps, count)
	// The column loops below are the decoder's per-access hot path — the
	// throughput `make bench-trace` gates — so the varints decode inline
	// with a single-byte fast path (most deltas are small) instead of
	// through the method helpers, and the cursor lives in a local.
	p, off := br.payload, br.off
	prev := br.prevRow[bank]
	for i := range rows {
		if off >= len(p) {
			return ColBlock{}, binErrf("segment: truncated row delta")
		}
		c := p[off]
		off++
		u := uint64(c)
		if c >= 0x80 {
			u &= 0x7f
			for shift := uint(7); ; shift += 7 {
				if off >= len(p) || shift > 63 {
					return ColBlock{}, binErrf("segment: truncated row delta")
				}
				c = p[off]
				off++
				u |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
			}
		}
		row := prev + (int64(u>>1) ^ -int64(u&1)) // zigzag decode
		if row < 0 || row > MaxRow {
			return ColBlock{}, binErrf("segment: %w", checkLimits(int64(bank), row, 0))
		}
		prev = row
		rows[i] = int32(row)
	}
	br.prevRow[bank] = prev
	prev = br.prevGap[bank]
	for i := range gaps {
		if off >= len(p) {
			return ColBlock{}, binErrf("segment: truncated gap delta")
		}
		c := p[off]
		off++
		u := uint64(c)
		if c >= 0x80 {
			u &= 0x7f
			for shift := uint(7); ; shift += 7 {
				if off >= len(p) || shift > 63 {
					return ColBlock{}, binErrf("segment: truncated gap delta")
				}
				c = p[off]
				off++
				u |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
			}
		}
		gap := prev + (int64(u>>1) ^ -int64(u&1))
		if gap < 0 {
			return ColBlock{}, binErrf("segment: %w", checkLimits(int64(bank), 0, gap))
		}
		prev = gap
		gaps[i] = dram.Time(gap)
	}
	br.prevGap[bank] = prev
	dwells := buf.Dwells[:0]
	if br.segHasDwell {
		dwells = resize(dwells, count)
		prev = br.prevDwell[bank]
		for i := range dwells {
			if off >= len(p) {
				return ColBlock{}, binErrf("segment: truncated dwell delta")
			}
			c := p[off]
			off++
			u := uint64(c)
			if c >= 0x80 {
				u &= 0x7f
				for shift := uint(7); ; shift += 7 {
					if off >= len(p) || shift > 63 {
						return ColBlock{}, binErrf("segment: truncated dwell delta")
					}
					c = p[off]
					off++
					u |= uint64(c&0x7f) << shift
					if c < 0x80 {
						break
					}
				}
			}
			dwell := prev + (int64(u>>1) ^ -int64(u&1))
			if dwell < 0 {
				return ColBlock{}, binErrf("segment: %w", checkDwell(dwell))
			}
			prev = dwell
			dwells[i] = dram.Time(dwell)
		}
		br.prevDwell[bank] = prev
	}
	br.off = off
	br.blockDone(bank, count)
	return ColBlock{Bank: bank, Rows: rows, Gaps: gaps, Dwells: dwells}, nil
}

// runList parses the segment's run list, validating it against segBlocks:
// every run must name a bank with a block in this segment, and per bank
// the run lengths must sum to exactly the block length. When collect is
// set the runs are appended to dst[:0] (ReadBinary needs them to
// reconstruct global order); the block-ingest path skips that. On any
// error the reader is poisoned — callers must not continue decoding.
func (br *BlockReader) runList(dst []run, collect bool) ([]run, error) {
	dst = dst[:0]
	nruns, err := br.uvarint("run count")
	if err != nil {
		return nil, err
	}
	if nruns == 0 || nruns > uint64(maxSegmentBytes) {
		return nil, binErrf("segment: bad run count %d", nruns)
	}
	// consumed is reused across segments (zeroed on every exit path below);
	// a dense slice beats a map at typical run counts — one short run per
	// couple of accesses.
	if br.consumed == nil {
		br.consumed = make([]int64, br.banks)
	}
	named := 0
	p, off := br.payload, br.off
	for i := uint64(0); i < nruns; i++ {
		var vals [2]uint64 // bank, length — same inline varint as decodeBlockCols
		for f := 0; f < 2; f++ {
			if off >= len(p) {
				return nil, binErrf("segment: truncated run list")
			}
			c := p[off]
			off++
			u := uint64(c)
			if c >= 0x80 {
				u &= 0x7f
				for shift := uint(7); ; shift += 7 {
					if off >= len(p) || shift > 63 {
						return nil, binErrf("segment: truncated run list")
					}
					c = p[off]
					off++
					u |= uint64(c&0x7f) << shift
					if c < 0x80 {
						break
					}
				}
			}
			vals[f] = u
		}
		bank64, length := vals[0], vals[1]
		if bank64 >= uint64(br.banks) {
			return nil, binErrf("segment: run for bank %d, header has %d banks", bank64, br.banks)
		}
		if length == 0 {
			return nil, binErrf("segment: zero-length run")
		}
		if br.consumed[bank64] == 0 {
			named++
		}
		br.consumed[bank64] += int64(length)
		if collect {
			dst = append(dst, run{bank: int(bank64), n: int64(length)})
		}
	}
	br.off = off
	if br.off != len(br.payload) {
		return nil, binErrf("segment: %d trailing bytes", len(br.payload)-br.off)
	}
	if named != len(br.segBlocks) {
		return nil, binErrf("segment: run list names %d banks, blocks cover %d", named, len(br.segBlocks))
	}
	for _, sb := range br.segBlocks {
		if br.consumed[sb.bank] != sb.count {
			return nil, binErrf("segment: runs replay %d accesses of bank %d, block carries %d", br.consumed[sb.bank], sb.bank, sb.count)
		}
	}
	// All named banks are segment banks (named == len(segBlocks) and every
	// segment bank is named with a non-zero count), so this zeroes the
	// whole slice back for the next segment.
	for _, sb := range br.segBlocks {
		br.consumed[sb.bank] = 0
	}
	br.segments++
	if br.OnSegment != nil {
		if err := br.OnSegment(br.payload); err != nil {
			return nil, binErrf("segment hook: %w", err)
		}
	}
	br.segOpen = false
	br.payload = br.payload[:0]
	return dst, nil
}

type run struct {
	bank int
	n    int64
}

// ReadBinary reads a complete binary trace from r, reconstructing the
// exact global access order from the per-segment run lists, so a
// text→binary→text round trip is byte-identical modulo header
// sanitization.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	prealloc := br.total
	if prealloc > 1<<20 {
		prealloc = 1 << 20 // cap what a hostile header can make us allocate up front
	}
	out := make([]Access, 0, prealloc)
	// Per-bank pending columns of the open segment, with a read cursor per
	// bank, and a pool recycling the block buffers across segments so the
	// steady state allocates nothing per block.
	cols := make([]ColBlock, br.banks)
	cur := make([]int64, br.banks)
	var pool []ColBlock
	var runs []run
	for {
		if br.blocksLeft > 0 {
			var buf ColBlock
			if n := len(pool); n > 0 {
				buf, pool = pool[n-1], pool[:n-1]
			}
			blk, err := br.decodeBlockCols(buf)
			if err != nil {
				return nil, err
			}
			cols[blk.Bank] = blk
			continue
		}
		if br.segOpen {
			// Segment complete: apply its runs to recover global order.
			// runList guarantees every run's bank has a block in this
			// segment and the per-bank run lengths sum to exactly the block
			// lengths, so the copies below can never run past a column.
			segAccs := br.segAccs
			runs, err = br.runList(runs, true)
			if err != nil {
				return nil, err
			}
			// Grow once for the whole segment, then place each run with an
			// element loop: typical runs are a handful of accesses, where
			// the per-append grow checks dominate. A dwell-free column,
			// the common case, copies without a per-access dwell branch.
			base := len(out)
			for int64(cap(out)-base) < segAccs {
				out = append(out[:cap(out)], Access{})
			}
			out = out[:base+int(segAccs)]
			for _, ru := range runs {
				col := cols[ru.bank]
				c := cur[ru.bank]
				rows := col.Rows[c : c+ru.n]
				gaps := col.Gaps[c : c+ru.n][:len(rows)]
				dst := out[base:][:len(rows)]
				if len(col.Dwells) == 0 {
					for i, r := range rows {
						dst[i] = Access{Bank: ru.bank, Row: int(r), Gap: gaps[i]}
					}
				} else {
					dwells := col.Dwells[c : c+ru.n][:len(rows)]
					for i, r := range rows {
						dst[i] = Access{Bank: ru.bank, Row: int(r), Gap: gaps[i], Dwell: dwells[i]}
					}
				}
				base += len(rows)
				cur[ru.bank] = c + ru.n
			}
			for _, sb := range br.segBlocks {
				if cur[sb.bank] != sb.count { // invariant, per runList above
					return nil, binErrf("segment: runs replay %d accesses of bank %d, block carries %d", cur[sb.bank], sb.bank, sb.count)
				}
				pool = append(pool, cols[sb.bank])
				cols[sb.bank] = ColBlock{}
				cur[sb.bank] = 0
			}
			continue
		}
		if err := br.nextSegment(); err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
	}
	return &Trace{Name: br.name, Accs: out}, nil
}

// ---------------------------------------------------------- auto-detect

// ReadAuto reads a trace in either format, sniffing the binary magic and
// falling back to the text parser. fallbackName applies only to text
// traces without a header line (the binary header always carries a name).
func ReadAuto(r io.Reader, fallbackName string) (*Trace, error) {
	src := bufio.NewReader(r)
	if IsBinary(src) {
		return ReadBinary(src)
	}
	return ReadAll(src, fallbackName)
}

// LoadFile reads a trace file in either format. The fallback name for
// headerless text traces is the file's base name.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f, filepath.Base(path))
}
