package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// (name length, segment payload size, bank index), every varint must fit
// 64 bits under binary.Uvarint's rule, decoded values are checked against
// the shared limits in io.go, and the header's total must match the
// decoded count — so a torn or truncated tail is always an error, never a
// silently short trace.

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
	// The writer's segments encode ≤ segmentAccs accesses at ≤ 35 bytes
	// each plus framing, far under this.
	maxSegmentBytes = 16 << 20

	// maxPooledPayload is the largest payload buffer a reader returns to
	// payloadFree: the most WriteBinary emits for one segment — per access
	// a 5-byte row delta, 10-byte gap and dwell deltas, and a 6-byte block
	// head and 4-byte run when every access has a block and a run of its
	// own, plus the flags, block count and run count — with resize's
	// eighth of slack on top. Only a hand-made stream, one that pads its
	// varints, has bigger segments; its buffer is dropped, so a hostile
	// session cannot park a buffer near maxSegmentBytes in the free list.
	maxPooledPayload = (segmentAccs*35 + 7) * 9 / 8
)

// payloadFree is a bounded free list of segment payload buffers, shared by
// every reader on any goroutine. A reader draws one for its first segment
// and returns it at the clean end marker, so a process that decodes trace
// after trace — a daemon's sessions, a benchmark's replays — reuses one
// buffer instead of growing a new one per trace. Unlike a sync.Pool it
// keeps its buffers across collections and hands them to any P; a return
// to a full list drops the buffer. Four covers the readers a process runs
// at once (one per replay, one per rhsimd session in flight on a small
// host) and caps what the list holds idle at 4 × maxPooledPayload.
var payloadFree = make(chan []byte, 4)

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
// drained, so segments encode into body (a few bytes per access) and
// flush to the writer after the header, framed for the version.
type binEncoder struct {
	scratch []Access // current segment, arrival order
	sorted  []Access // current segment, block order
	body    []byte   // encoded segments so far, each behind its flags word
	segs    []int    // byte length of each segment in body, flags word included
	dwell   bool     // some segment carries the dwell column: version 2

	state []bankState // per-bank state, grown to maxBank

	maxBank int
	total   int64
}

// flush encodes the scratch segment into body. One pass counts each
// bank's accesses and the segment's runs and dwells; a counting sort over
// the per-bank state then lays the accesses out in block order (ascending
// bank, arrival order within a bank), so every count is known before the
// bytes that carry it are written.
func (e *binEncoder) flush() {
	seg := e.scratch
	if len(seg) == 0 {
		return
	}
	for len(e.state) <= e.maxBank {
		e.state = append(e.state, bankState{})
	}
	st := e.state
	// A segment carries the dwell column iff any of its accesses has one;
	// a dwell-free segment of a dwell-carrying trace stays column-free
	// (and leaves the per-bank dwell delta state untouched).
	var flags uint64
	runs := 0
	for i, a := range seg {
		st[a.Bank].left++
		if a.Dwell != 0 {
			flags = segFlagDwell
		}
		if i == 0 || a.Bank != seg[i-1].Bank {
			runs++
		}
	}
	// Turn each count into its block's offset in sorted; banks absent
	// from the segment keep their zero.
	blocks := 0
	var off int64
	for b := range st {
		if n := st[b].left; n != 0 {
			st[b].left = off
			off += n
			blocks++
		}
	}
	e.sorted = resize(e.sorted, len(seg))
	for _, a := range seg {
		e.sorted[st[a.Bank].left] = a
		st[a.Bank].left++
	}
	// Each bank's left is now its block's end in sorted.

	start := len(e.body)
	p := binary.AppendUvarint(e.body, flags)
	p = binary.AppendUvarint(p, uint64(blocks))
	for i := 0; i < len(e.sorted); {
		s := &st[e.sorted[i].Bank]
		blk := e.sorted[i:s.left]
		s.left = 0
		i += len(blk)
		p = binary.AppendUvarint(p, uint64(blk[0].Bank))
		p = binary.AppendUvarint(p, uint64(len(blk)))
		for _, a := range blk {
			p = binary.AppendVarint(p, int64(a.Row)-s.row)
			s.row = int64(a.Row)
		}
		for _, a := range blk {
			p = binary.AppendVarint(p, int64(a.Gap)-s.gap)
			s.gap = int64(a.Gap)
		}
		if flags != 0 {
			for _, a := range blk {
				p = binary.AppendVarint(p, int64(a.Dwell)-s.dwell)
				s.dwell = int64(a.Dwell)
			}
		}
	}
	// Run-length encode the original interleaving.
	p = binary.AppendUvarint(p, uint64(runs))
	for i := 0; i < len(seg); {
		j := i + 1
		for j < len(seg) && seg[j].Bank == seg[i].Bank {
			j++
		}
		p = binary.AppendUvarint(p, uint64(seg[i].Bank))
		p = binary.AppendUvarint(p, uint64(j-i))
		i = j
	}
	e.body = p
	e.segs = append(e.segs, len(p)-start)
	e.dwell = e.dwell || flags != 0
	e.scratch = seg[:0]
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
		enc.scratch = append(enc.scratch, a)
		enc.maxBank = max(enc.maxBank, a.Bank)
		if enc.total++; len(enc.scratch) == segmentAccs {
			enc.flush()
		}
	}
	enc.flush()

	banks, version := 0, 1
	if enc.total > 0 {
		banks = enc.maxBank + 1
	}
	if enc.dwell {
		version = 2
	}
	if _, err := w.Write(AppendBinaryHeader(nil, name, banks, enc.total, version)); err != nil {
		return 0, err
	}
	// Frame each segment: uvarint length, then the segment. Version 1 is
	// the pre-dwell codec, which has no flags word, so its one byte (every
	// flags value fits one) is dropped.
	var head [binary.MaxVarintLen64]byte
	body := enc.body
	for _, n := range enc.segs {
		seg := body[:n]
		body = body[n:]
		if version == 1 {
			seg = seg[1:]
		}
		if _, err := w.Write(binary.AppendUvarint(head[:0], uint64(len(seg)))); err != nil {
			return 0, err
		}
		if _, err := w.Write(seg); err != nil {
			return 0, err
		}
	}
	if _, err := w.Write([]byte{0}); err != nil { // end marker
		return 0, err
	}
	return enc.total, nil
}

// AppendBinaryHeader appends the binary trace header of the given format
// version — magic, length-prefixed name, bank count, access count, all
// canonical uvarints — to dst and returns it. It is the exact byte
// sequence WriteBinary puts before the first segment, exposed so a
// journaled session can reconstruct the prefix of a half-streamed trace
// without re-encoding any accesses (serve's resume path glues this header
// onto the journaled raw segments, with the version of the stream it
// journaled). version is 1 or 2; anything else panics — it comes from
// this package's own reader or writer, never from the wire.
func AppendBinaryHeader(dst []byte, name string, banks int, total int64, version int) []byte {
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
// from r. NewBlockReader reads and checks the header; segments are
// length-checked and skipped, never decoded. It is the client half of
// session resume: after the server acknowledges m segments already
// replayed, the client skips header plus m segments and streams the
// remainder — raw length-prefixed segments and the end marker — from the
// same reader. A stream that ends (or hits the end marker) before n
// segments is an error: the resume handle promises at least that many.
func SkipBinaryPrefix(r *bufio.Reader, n int) error {
	if _, err := NewBlockReader(r); err != nil {
		return err
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
	// segment, and other readers reuse it after the end marker. A non-nil
	// error poisons the reader: the current decode call fails with it and
	// no further segments are delivered. serve uses this
	// to journal replayed segments for session resume and to pace partial
	// reports; the hook fires at the single point where a segment is known
	// complete, so a journaled segment is never a torn one.
	OnSegment func(payload []byte) error

	state []bankState // per-bank state, grown to the highest bank a block names

	payload     []byte // current segment bytes, reused; drawn from payloadFree
	off         int    // decode cursor within payload
	segOpen     bool   // a segment's run list is still pending
	segHasDwell bool   // current segment carries the dwell column
	blocksLeft  int    // blocks not yet returned from the current segment
	lastBank    int    // bank of the current segment's latest block, -1 before its first
	segAccs     int64  // accesses decoded from the current segment

	decoded  int64
	segments int
	done     bool
}

// bankState is one bank's codec state, the reader's and the writer's.
// row, gap and dwell are the delta bases of its columns, carried across
// segments (dwell advances only across dwell-carrying segments). left is
// per-segment scratch and zero for every bank between segments: the
// reader counts down the accesses of the bank's block that the run list
// has yet to replay, and the writer's flush counts the bank's accesses
// and places its block.
type bankState struct {
	row, gap, dwell int64
	left            int64
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

// uvarintAt decodes the unsigned varint at p[off:] and returns it with
// the offset just past it, or a negative offset when the varint is
// truncated or overflows 64 bits. The overflow rule is binary.Uvarint's:
// the tenth byte may only be 0 or 1. Every varint inside a segment payload
// decodes here. The first byte is peeled off the loop, so a one-byte
// varint, the common small delta, returns at once and a longer one reads
// no byte twice; the function stays within the inliner's budget, which
// the column loop depends on.
func uvarintAt(p []byte, off int) (uint64, int) {
	if off >= len(p) {
		return 0, -1
	}
	v := uint64(p[off])
	off++
	if v < 0x80 {
		return v, off
	}
	v &= 0x7f
	for s := uint(7); off < len(p); s += 7 {
		b := p[off]
		off++
		if s == 63 && b > 1 {
			break
		}
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, off
		}
	}
	return 0, -1
}

// uvarint decodes an unsigned varint from the current payload.
func (br *BlockReader) uvarint(what string) (uint64, error) {
	v, next := uvarintAt(br.payload, br.off)
	if next < 0 {
		return 0, binErrf("segment: truncated %s", what)
	}
	br.off = next
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
		br.releasePayload()
		return io.EOF
	}
	if n > maxSegmentBytes {
		return binErrf("segment of %d bytes exceeds limit %d", n, maxSegmentBytes)
	}
	if br.payload == nil {
		select {
		case br.payload = <-payloadFree:
		default:
		}
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
	br.lastBank = -1
	br.segAccs = 0
	return nil
}

// releasePayload hands the payload buffer to payloadFree once the clean
// end marker is read: the last segment's OnSegment call has returned, and
// neither NextCols nor ReadBinary reads the payload after the end. A
// buffer over maxPooledPayload, or one the full list has no room for, is
// dropped instead.
func (br *BlockReader) releasePayload() {
	p := br.payload
	br.payload = nil
	if cap(p) != 0 && cap(p) <= maxPooledPayload {
		select {
		case payloadFree <- p:
		default:
		}
	}
}

// blockHead parses and validates the bank/count header of the next block
// in the open segment, growing the per-bank state to cover the bank.
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
	if bank <= br.lastBank {
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
	for len(br.state) <= bank {
		br.state = append(br.state, bankState{})
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
// columns and sets its bank's run-list countdown to the block length.
func (br *BlockReader) decodeBlockCols(buf ColBlock) (ColBlock, error) {
	bank, count, err := br.blockHead()
	if err != nil {
		return ColBlock{}, err
	}
	st := &br.state[bank]
	blk := ColBlock{Bank: bank, Rows: resize(buf.Rows, count), Gaps: resize(buf.Gaps, count), Dwells: buf.Dwells[:0]}
	off := br.off
	if st.row, off, err = decodeDeltas(blk.Rows, br.payload, off, st.row, MaxRow, "row"); err != nil {
		return ColBlock{}, err
	}
	if st.gap, off, err = decodeDeltas(blk.Gaps, br.payload, off, st.gap, MaxGap, "gap"); err != nil {
		return ColBlock{}, err
	}
	if br.segHasDwell {
		blk.Dwells = resize(blk.Dwells, count)
		if st.dwell, off, err = decodeDeltas(blk.Dwells, br.payload, off, st.dwell, MaxDwell, "dwell"); err != nil {
			return ColBlock{}, err
		}
	}
	br.off = off
	st.left = int64(count)
	br.lastBank = bank
	br.blocksLeft--
	br.segAccs += int64(count)
	br.decoded += int64(count)
	return blk, nil
}

// decodeDeltas decodes one column: len(dst) zigzag varint deltas from
// p[off:], each added to the running value that starts at prev and
// checked against [0, limit]. It returns the last value and the offset
// past the column; what names the column in errors. This loop is the
// decoder's per-access hot path, the throughput `make bench-trace` gates.
func decodeDeltas[T int32 | dram.Time](dst []T, p []byte, off int, prev, limit int64, what string) (int64, int, error) {
	for i := range dst {
		u, next := uvarintAt(p, off)
		if next < 0 {
			return 0, 0, binErrf("segment: truncated %s delta", what)
		}
		off = next
		v := prev + (int64(u>>1) ^ -int64(u&1)) // zigzag decode
		// One unsigned compare: a negative v wraps above any limit.
		if uint64(v) > uint64(limit) {
			return 0, 0, binErrf("segment: %s %d out of range [0, %d]", what, v, limit)
		}
		prev = v
		dst[i] = T(v)
	}
	return prev, off, nil
}

// runList parses the open segment's run list and checks it against the
// segment's blocks by counting down: each run draws its length from its
// bank's left, so a run for a bank without a block in the segment, or one
// that overdraws its bank's block, fails. Since no left goes below zero,
// runs that total the segment's accesses leave every bank at exactly zero
// — each block replayed in full, and the countdown ready for the next
// segment. When collect is set the runs are appended to dst[:0]
// (ReadBinary needs them to reconstruct global order); the block-ingest
// path skips that. On any error the reader is poisoned — callers must not
// continue decoding.
func (br *BlockReader) runList(dst []run, collect bool) ([]run, error) {
	dst = dst[:0]
	nruns, err := br.uvarint("run count")
	if err != nil {
		return nil, err
	}
	// Every run replays at least one access.
	if nruns == 0 || nruns > uint64(br.segAccs) {
		return nil, binErrf("segment: bad run count %d", nruns)
	}
	var replayed int64
	st, p, off := br.state, br.payload, br.off
	for i := uint64(0); i < nruns; i++ {
		bank, next := uvarintAt(p, off)
		if next < 0 {
			return nil, binErrf("segment: truncated run list")
		}
		n, next := uvarintAt(p, next)
		if next < 0 {
			return nil, binErrf("segment: truncated run list")
		}
		off = next
		if n == 0 {
			return nil, binErrf("segment: zero-length run")
		}
		if bank >= uint64(len(st)) || n > uint64(st[bank].left) {
			return nil, binErrf("segment: run of %d accesses for bank %d overdraws the bank's block", n, bank)
		}
		st[bank].left -= int64(n)
		replayed += int64(n)
		if collect {
			dst = append(dst, run{bank: int(bank), n: int64(n)})
		}
	}
	if off != len(p) {
		return nil, binErrf("segment: %d trailing bytes", len(p)-off)
	}
	if replayed != br.segAccs {
		return nil, binErrf("segment: runs replay %d accesses, blocks carry %d", replayed, br.segAccs)
	}
	br.off = off
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
	prealloc := min(br.total, 1<<20) // cap what a hostile header can make us allocate up front
	out := make([]Access, 0, prealloc)
	// The open segment's blocks, and per bank the part of its block that
	// no run has replayed yet, grown to the highest bank a block names.
	// Block buffers are recycled by position across segments, so the
	// steady state allocates nothing per block.
	var blocks, tails []ColBlock
	var runs []run
	for {
		if br.blocksLeft > 0 {
			var buf ColBlock
			if n := len(blocks); n < cap(blocks) {
				buf = blocks[:n+1][n] // this position's buffer from an earlier segment
			}
			blk, err := br.decodeBlockCols(buf)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, blk)
			for len(tails) <= blk.Bank {
				tails = append(tails, ColBlock{})
			}
			tails[blk.Bank] = blk
			continue
		}
		if br.segOpen {
			// Segment complete: apply its runs to recover global order.
			// runList guarantees every run draws on a block of this segment
			// and no more than the block has left, so the copies below can
			// never run past a column, and together they replay every block
			// in full.
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
				t := &tails[ru.bank]
				rows := t.Rows[:ru.n]
				gaps := t.Gaps[:len(rows)]
				dst := out[base:][:len(rows)]
				if len(t.Dwells) == 0 {
					for i, r := range rows {
						dst[i] = Access{Bank: ru.bank, Row: int(r), Gap: gaps[i]}
					}
				} else {
					dwells := t.Dwells[:len(rows)]
					for i, r := range rows {
						dst[i] = Access{Bank: ru.bank, Row: int(r), Gap: gaps[i], Dwell: dwells[i]}
					}
					t.Dwells = t.Dwells[len(rows):]
				}
				t.Rows, t.Gaps = t.Rows[len(rows):], t.Gaps[len(rows):]
				base += len(rows)
			}
			blocks = blocks[:0]
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
