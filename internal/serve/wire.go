// Package serve is the multi-tenant mitigation daemon behind cmd/rhsimd:
// a long-lived TCP server that accepts ACT streams from many concurrent
// clients, routes each tenant's stream onto per-(tenant, bank) replay
// pipelines — one memctrl.RunBlocks session per tenant, which fans the
// columnar blocks out to one goroutine per bank — and answers with the
// tenant's victim-refresh decisions, bit-flip verdicts, and refresh
// overhead.
//
// The wire format (DESIGN.md §12) is deliberately thin: length-prefixed
// frames whose DATA payloads are raw bytes of the binary trace format
// (internal/trace), so the server-side hot path is exactly the zero-alloc
// columnar decode + batched replay the local tools use — the frames only
// delimit tenants and carry the handshake and the verdict.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types. A session is HELLO, any number of DATA frames carrying one
// binary trace stream, FIN; the server answers with one final RESULT or
// ERROR frame and closes. With Hello.ReportEvery set, partial RESULT
// frames (Report.Partial) also stream server→client mid-session, and a
// resume session (Hello.Resume) begins with a partial RESULT
// acknowledgment before any DATA flows. One session per connection.
const (
	// FrameHello opens a session; the payload is the JSON-encoded Hello.
	FrameHello = byte('H')

	// FrameData carries the next chunk of the tenant's binary trace
	// stream. Chunk boundaries are arbitrary — the server sees the
	// concatenation of all DATA payloads as one io.Reader. Empty DATA
	// frames are legal no-ops (a keepalive under the idle deadline).
	FrameData = byte('D')

	// FrameFin marks the end of the tenant's stream (empty payload). The
	// trace's own end marker is authoritative for decoding; FIN lets the
	// server distinguish a finished client from a stalled one when the
	// trace bytes themselves are torn.
	FrameFin = byte('F')

	// FrameResult carries a JSON-encoded Report: the final verdict, or —
	// when the hello asked for them — a mid-session partial (Partial
	// set) or the resume acknowledgment (Partial and Resumed set).
	FrameResult = byte('R')

	// FrameError is the server's failure reply: a UTF-8 message.
	FrameError = byte('E')
)

// MaxFramePayload bounds one frame's payload. A hostile length prefix
// therefore costs at most one rejected frame, never an unbounded
// allocation; honest clients chunk well below it.
const MaxFramePayload = 4 << 20

// maxHelloPayload bounds the handshake frame separately — a Hello is a
// handful of scalar fields, so anything beyond this is garbage.
const maxHelloPayload = 64 << 10

// frameHeaderLen is the fixed prefix: a big-endian uint32 length counting
// the type byte plus payload, then the type byte itself.
const frameHeaderLen = 5

var (
	// errFrameLength rejects a length prefix of zero (no room for the
	// type byte) or beyond 1+MaxFramePayload.
	errFrameLength = errors.New("serve: frame length out of range")
)

// writeFrame emits one frame. The header is stack-allocated; the payload
// is written as-is, so callers on the hot path can reuse one buffer.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("serve: frame payload %d bytes exceeds limit %d", len(payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// frameReader decodes the frame layer off one connection. It does not
// buffer beyond what the caller hands it (wrap the conn in bufio first);
// its own state is one header scratch array, so reading frames allocates
// nothing.
type frameReader struct {
	r io.Reader
	// extend, when non-nil, runs before each blocking read — the server
	// hooks the per-connection idle deadline here so a stalled client
	// times out per frame, not per session.
	extend func()
	// count, when non-nil, is called with the number of payload+header
	// bytes consumed — the serve_bytes_in_total feed.
	count func(int64)
	hdr   [frameHeaderLen]byte
}

// head reads the next frame's header and returns its type and payload
// length. io.EOF means the peer closed cleanly between frames; a partial
// header is io.ErrUnexpectedEOF.
func (fr *frameReader) head() (typ byte, n int, err error) {
	if fr.extend != nil {
		fr.extend()
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, fmt.Errorf("serve: torn frame header: %w", io.ErrUnexpectedEOF)
		}
		return 0, 0, err
	}
	if fr.count != nil {
		fr.count(frameHeaderLen)
	}
	l := binary.BigEndian.Uint32(fr.hdr[:4])
	if l < 1 || l > 1+MaxFramePayload {
		return 0, 0, errFrameLength
	}
	return fr.hdr[4], int(l - 1), nil
}

// next reads one whole frame, growing buf as needed, and returns the type
// and payload (aliasing buf). Only the handshake and reply paths use it;
// DATA payloads stream through dataReader instead.
func (fr *frameReader) next(buf []byte, limit int) (byte, []byte, error) {
	typ, n, err := fr.head()
	if err != nil {
		return 0, nil, err
	}
	if n > limit {
		return 0, nil, fmt.Errorf("serve: %c frame payload %d bytes exceeds limit %d", typ, n, limit)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, fmt.Errorf("serve: torn %c frame payload: %w", typ, noEOF(err))
	}
	if fr.count != nil {
		fr.count(int64(n))
	}
	return typ, buf, nil
}

// noEOF maps a bare io.EOF inside a structure to io.ErrUnexpectedEOF —
// the same torn-tail discipline as the trace codec.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// dataReader presents the DATA frames of one session as a contiguous
// io.Reader — the byte stream trace.NewBlockReader decodes. Frame headers
// are consumed inline from the same scratch array, so the adapter adds
// zero allocations between the socket and the columnar decoder. FIN (or a
// clean close after the trace's end marker) reads as io.EOF; an ERROR
// frame from the peer or a foreign frame type fails the read.
type dataReader struct {
	fr        *frameReader
	remaining int  // payload bytes left in the current DATA frame
	fin       bool // FIN seen: every further Read is io.EOF
}

// Read implements io.Reader over the session's concatenated DATA payloads.
func (d *dataReader) Read(p []byte) (int, error) {
	for d.remaining == 0 {
		if d.fin {
			return 0, io.EOF
		}
		typ, n, err := d.fr.head()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Peer vanished between frames without FIN: the trace
				// layer decides whether its stream was complete.
				d.fin = true
				return 0, io.EOF
			}
			return 0, err
		}
		switch typ {
		case FrameData:
			d.remaining = n
		case FrameFin:
			if n != 0 {
				return 0, fmt.Errorf("serve: FIN frame carries %d payload bytes, want 0", n)
			}
			d.fin = true
			return 0, io.EOF
		default:
			return 0, fmt.Errorf("serve: unexpected %c frame inside data stream", typ)
		}
	}
	if len(p) > d.remaining {
		p = p[:d.remaining]
	}
	n, err := d.fr.r.Read(p)
	d.remaining -= n
	if n > 0 && d.fr.count != nil {
		d.fr.count(int64(n))
	}
	if err != nil && d.remaining > 0 {
		return n, fmt.Errorf("serve: torn DATA frame payload: %w", noEOF(err))
	}
	if err != nil && errors.Is(err, io.EOF) {
		// The read drained exactly to the frame boundary and hit EOF;
		// report the bytes now, surface end-of-stream on the next call.
		err = nil
		d.fin = true
	}
	return n, err
}
