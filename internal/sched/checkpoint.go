package sched

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Checkpoint is an append-only journal of completed sweep cells, keyed by
// an opaque cell-config hash chosen by the caller. A sweep records each
// cell's result as it completes; a restarted sweep opens the same file,
// looks every cell up, and re-runs only the ones missing — reassembling
// output identical to an uninterrupted run.
//
// The on-disk format is JSON lines, one {"key": ..., "val": ...} object
// per record, with no length cap on a line. Each Record is one atomic
// append under a lock, so the only damage a mid-write crash can leave is a
// truncated final line; loading tolerates that (and any other unparsable
// line) by skipping it — a skipped record merely costs recomputation of
// that cell. A nil *Checkpoint is valid and inert, so callers wire it
// unconditionally.
//
// Records are indexed by file offset: the checkpoint holds only where each
// key's latest line sits in the file, and Lookup reads that line back, so
// its memory is proportional to the number of keys rather than to the
// journaled bytes, and Lookup works until Close.
type Checkpoint struct {
	mu    sync.Mutex
	f     *os.File
	size  int64               // bytes in f: where the next record starts
	index map[string]lineSpan // key → its latest intact line
}

// lineSpan locates one journal line in the file, without its newline.
type lineSpan struct{ off, n int64 }

// checkpointLine is the journal's wire format.
type checkpointLine struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// linePool recycles Record's line buffers: a serve resume chunk is a
// ~0.5 MB line, which would otherwise be allocated anew per record.
var linePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// OpenCheckpoint opens (creating if needed) the journal at path and indexes
// every intact record. Corrupt lines — typically one truncated tail line
// from a killed run — are skipped, not fatal.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sched: checkpoint: %w", err)
	}
	c := &Checkpoint{f: f, index: map[string]lineSpan{}}
	if err := c.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sched: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// load indexes the journal line by line, then terminates a torn tail.
func (c *Checkpoint) load() error {
	br := bufio.NewReader(c.f)
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if err == bufio.ErrBufferFull {
			continue // longer than br's buffer: keep reading
		}
		if err != nil && err != io.EOF {
			return err
		}
		if len(line) == 0 {
			return nil // EOF right after a newline (or in an empty file)
		}
		body := bytes.TrimSuffix(line, []byte("\n"))
		var head struct {
			Key string `json:"key"`
		}
		if json.Unmarshal(body, &head) == nil && head.Key != "" {
			c.index[head.Key] = lineSpan{c.size, int64(len(body))}
		} // else torn or foreign line: recompute that cell
		c.size += int64(len(line))
		line = line[:0]
		if err == io.EOF {
			// A killed run can leave the file without a trailing newline
			// (a torn final record). Terminate it now so the next append
			// starts a fresh line instead of gluing onto the debris.
			if _, err := c.f.Write([]byte("\n")); err != nil {
				return err
			}
			c.size++
			return nil
		}
	}
}

// Lookup unmarshals the journaled value for key into v and reports whether
// the key was present. Nil-safe (always false); false after Close.
func (c *Checkpoint) Lookup(key string, v any) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	sp, ok := c.index[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	buf := make([]byte, sp.n)
	if _, err := c.f.ReadAt(buf, sp.off); err != nil {
		return false
	}
	var line checkpointLine
	if err := json.Unmarshal(buf, &line); err != nil || line.Key != key {
		return false
	}
	if err := json.Unmarshal(line.Val, v); err != nil {
		return false // treat an undecodable record as absent: recompute
	}
	return true
}

// Record journals one completed cell. The value is marshaled once, straight
// into the line json.Marshal(checkpointLine{key, json.Marshal(v)}) would
// produce, and the line is a single append, serialized against concurrent
// recorders. Nil-safe (no-op).
func (c *Checkpoint) Record(key string, v any) error {
	if c == nil {
		return nil
	}
	k, err := json.Marshal(key)
	if err != nil {
		return fmt.Errorf("sched: checkpoint: %w", err)
	}
	buf := linePool.Get().(*bytes.Buffer)
	defer linePool.Put(buf)
	buf.Reset()
	buf.WriteString(`{"key":`)
	buf.Write(k)
	buf.WriteString(`,"val":`)
	// Encode writes exactly json.Marshal's bytes plus a newline.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("sched: checkpoint: %w", err)
	}
	buf.Truncate(buf.Len() - 1)
	buf.WriteString("}\n")
	line := buf.Bytes()

	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.f.Write(line)
	off := c.size
	c.size += int64(n) // a short write's debris still shifts later lines
	if err != nil {
		return fmt.Errorf("sched: checkpoint: %w", err)
	}
	c.index[key] = lineSpan{off, int64(len(line) - 1)}
	return nil
}

// Len returns the number of loaded and recorded cells (0 on nil).
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Close releases the journal file. Nil-safe.
func (c *Checkpoint) Close() error {
	if c == nil || c.f == nil {
		return nil
	}
	return c.f.Close()
}
