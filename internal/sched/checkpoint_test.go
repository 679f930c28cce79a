package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

type ckptCell struct {
	Scheme string  `json:"scheme"`
	Value  float64 `json:"value"`
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("fresh checkpoint has %d entries", c.Len())
	}
	// k1 is recorded twice: the latest line wins, in-process and reloaded.
	if err := c.Record("k1", ckptCell{Scheme: "stale", Value: 9}); err != nil {
		t.Fatal(err)
	}
	want := ckptCell{Scheme: "Graphene", Value: 0.25}
	if err := c.Record("k1", want); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("re-recorded key counts %d entries, want 1", c.Len())
	}
	var got ckptCell
	if !c.Lookup("k1", &got) || got != want {
		t.Fatalf("same-session lookup = %+v, %v", got, c.Lookup("k1", &got))
	}
	if c.Lookup("absent", &got) {
		t.Fatal("lookup of an absent key succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record must survive the restart.
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("reloaded %d entries, want 1", c2.Len())
	}
	got = ckptCell{}
	if !c2.Lookup("k1", &got) || got != want {
		t.Fatalf("reloaded lookup = %+v", got)
	}
}

// TestCheckpointToleratesTornTailLine models a run killed mid-append: the
// torn final line is skipped, every intact record loads, and the journal
// stays appendable.
func TestCheckpointToleratesTornTailLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("a", ckptCell{Scheme: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("b", ckptCell{Scheme: "y", Value: 2}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Simulate the crash: append half a record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","val":{"sch`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("loaded %d entries from a torn journal, want 2", c2.Len())
	}
	var got ckptCell
	if !c2.Lookup("b", &got) || got.Value != 2 {
		t.Fatalf("intact record lost: %+v", got)
	}
	if c2.Lookup("c", &got) {
		t.Fatal("torn record resolved")
	}
	// The journal remains usable after the torn line, in this process too:
	// the newline OpenCheckpoint appended shifts every later record.
	if err := c2.Record("c", ckptCell{Scheme: "z", Value: 3}); err != nil {
		t.Fatal(err)
	}
	if !c2.Lookup("c", &got) || got != (ckptCell{Scheme: "z", Value: 3}) {
		t.Fatalf("record after the repaired tail = %+v", got)
	}
	if !c2.Lookup("a", &got) || got != (ckptCell{Scheme: "x", Value: 1}) {
		t.Fatalf("record before the torn tail = %+v", got)
	}
	c2.Close()
	c3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 3 {
		t.Fatalf("post-repair journal has %d entries, want 3", c3.Len())
	}
	if !c3.Lookup("c", &got) || got != (ckptCell{Scheme: "z", Value: 3}) {
		t.Fatalf("reloaded record after the repaired tail = %+v", got)
	}
}

// TestCheckpointSkipsForeignLines: blank, CRLF-terminated and foreign lines
// load as they always have, and none of them shifts where a later record —
// loaded or freshly appended — is read back from.
func TestCheckpointSkipsForeignLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	journal := "\n" +
		`{"key":"a","val":{"scheme":"x","value":1}}` + "\r\n" +
		"not json\n" +
		`{"foo":1}` + "\n" +
		`{"key":"","val":2}` + "\n" +
		"\r\n" +
		`{"key":"b","val":{"scheme":"y","value":2}}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		c, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if reopen == 0 {
			if err := c.Record("c", ckptCell{Scheme: "z", Value: 3}); err != nil {
				t.Fatal(err)
			}
		}
		if c.Len() != 3 {
			t.Fatalf("open %d: %d entries, want 3", reopen, c.Len())
		}
		for key, want := range map[string]ckptCell{
			"a": {Scheme: "x", Value: 1},
			"b": {Scheme: "y", Value: 2},
			"c": {Scheme: "z", Value: 3},
		} {
			var got ckptCell
			if !c.Lookup(key, &got) || got != want {
				t.Errorf("open %d: Lookup(%q) = %+v, want %+v", reopen, key, got, want)
			}
		}
		c.Close()
	}
}

// TestCheckpointLongLine: a record far over any line-buffer size — a serve
// resume chunk of many segments — reloads, and so does the journal around
// it.
func TestCheckpointLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("\x00\x7f\xff<&>\n"), 13<<20/8) // 17+ MiB once base64-encoded
	if err := c.Record("small", ckptCell{Scheme: "x", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("chunk", chunk); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", c2.Len())
	}
	var small ckptCell
	if !c2.Lookup("small", &small) || small != (ckptCell{Scheme: "x", Value: 1}) {
		t.Fatalf("small record = %+v", small)
	}
	var got []byte
	if !c2.Lookup("chunk", &got) || !bytes.Equal(got, chunk) {
		t.Fatalf("chunk record: %d bytes back", len(got))
	}
}

// TestCheckpointLineFormat pins the journal bytes: each Record appends
// exactly json.Marshal(checkpointLine{key, json.Marshal(v)}) and a newline,
// so journals are interchangeable with those written by a Checkpoint that
// marshals the line as a whole — HTML and line-separator escapes included.
func TestCheckpointLineFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	records := []struct {
		key string
		val any
	}{
		{"plain", ckptCell{Scheme: "Graphene", Value: 0.25}},
		{`<a href="x">&amp;</a>`, ckptCell{Scheme: "<PARA> & \"CBT\"", Value: -1e-9}},
		{"sep\u2028\u2029tab\tnl\n", map[string]string{"k\u2028": "<v>\u2029&"}},
		{"bytes", []byte("<\x00\xff&>")},
		{"resume/t/1/chunk/0", struct {
			Segments int    `json:"segments"`
			Data     []byte `json:"data"`
		}{3, bytes.Repeat([]byte{0xe2, 0x80, 0xa8, '<'}, 1000)}},
		{"null", nil},
	}
	var want []byte
	for _, r := range records {
		if err := c.Record(r.key, r.val); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(r.val)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(checkpointLine{Key: r.key, Val: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ\n got: %q\nwant: %q", got, want)
	}
	var m map[string]string
	if !c.Lookup(records[2].key, &m) || m["k\u2028"] != "<v>\u2029&" {
		t.Fatalf("escaped record read back as %q", m)
	}
}

// TestCheckpointMemoryIndependentOfValues: the checkpoint keeps an index,
// not the values, so journaling 64 MiB leaves well under 1 MiB behind.
func TestCheckpointMemoryIndependentOfValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	chunk := bytes.Repeat([]byte{0x5a}, 1<<20)
	heap := func() uint64 {
		// Two cycles: the first moves pooled buffers to the victim cache,
		// the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 64; i++ {
		if err := c.Record(fmt.Sprintf("chunk/%d", i), chunk); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if c.Len() != 64 {
		t.Fatalf("%d entries, want 64", c.Len())
	}
	if after > before && after-before >= 1<<20 {
		t.Fatalf("64 MiB journaled grew the heap by %d bytes, want < 1 MiB", after-before)
	}
	runtime.KeepAlive(chunk)
}

func TestCheckpointNilIsInert(t *testing.T) {
	var c *Checkpoint
	if c.Lookup("k", &struct{}{}) {
		t.Error("nil Lookup returned true")
	}
	if err := c.Record("k", 1); err != nil {
		t.Errorf("nil Record = %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("nil Len = %d", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

func TestCheckpointConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := c.Record(key, ckptCell{Value: float64(i)}); err != nil {
				t.Error(err)
				return
			}
			var got ckptCell
			if !c.Lookup(key, &got) || got.Value != float64(i) {
				t.Errorf("Lookup(%q) right after Record = %+v", key, got)
			}
		}(i)
	}
	wg.Wait()
	c.Close()
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != n {
		t.Fatalf("reloaded %d entries, want %d", c2.Len(), n)
	}
}
