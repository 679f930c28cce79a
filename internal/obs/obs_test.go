package obs

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsNoOp pins the overhead contract: every method of a nil
// Recorder and of the nil metric handles it returns must be callable.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindNRR})
	r.SetSink(&Collect{})
	if c := r.Counter("x"); c != nil {
		t.Errorf("nil recorder returned non-nil counter")
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(42)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 || s.Events != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", s)
	}
	if names := r.CounterNames(); names != nil {
		t.Errorf("nil recorder counter names = %v", names)
	}
}

func TestCountersGaugesAndSeq(t *testing.T) {
	r := New()
	c := r.Counter("acts_total")
	c.Add(10)
	c.Inc()
	if c.Value() != 11 {
		t.Errorf("counter = %d, want 11", c.Value())
	}
	if r.Counter("acts_total") != c {
		t.Error("counter registry returned a different handle for the same name")
	}
	g := r.Gauge("cells_running")
	g.Add(2)
	g.Add(-1)
	if g.Value() != 1 {
		t.Errorf("gauge = %d, want 1", g.Value())
	}
	g.Set(7)

	sink := &Collect{}
	r.Emit(Event{Kind: "dropped"}) // no sink attached yet: seq advances
	r.SetSink(sink)
	r.Emit(Event{Kind: "a", Bank: 3})
	r.Emit(Event{Kind: "b", Bank: -1})
	evs := sink.Events()
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("events = %+v, want seq 2 and 3", evs)
	}

	s := r.Snapshot()
	if s.Counters["acts_total"] != 11 || s.Gauges["cells_running"] != 7 || s.Events != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	if got := r.CounterNames(); len(got) != 1 || got[0] != "acts_total" {
		t.Errorf("counter names = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("gap")
	for _, v := range []int64{0, 1, 1, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["gap"]
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", s.Min, s.Max)
	}
	if s.Sum != 0+1+1+3+4+1000+0 {
		t.Errorf("sum = %d", s.Sum)
	}
	want := map[int64]int64{
		1:    2, // the two zeros (0 and the clamped -5)
		2:    2, // the two ones
		4:    1, // 3
		8:    1, // 4
		1024: 1, // 1000
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Lt] != b.Count {
			t.Errorf("bucket lt=%d count=%d, want %d", b.Lt, b.Count, want[b.Lt])
		}
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := New()
	sink := &Collect{}
	r.SetSink(sink)
	c := r.Counter("n")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i))
				r.Emit(Event{Kind: "k", Bank: w})
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	evs := sink.Events()
	if len(evs) != workers*per {
		t.Fatalf("%d events, want %d", len(evs), workers*per)
	}
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if s := r.Snapshot().Histograms["h"]; s.Count != workers*per {
		t.Errorf("histogram count = %d", s.Count)
	}
}

func TestJSONLinesSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	s.Emit(Event{Seq: 1, Kind: KindNRR, Scheme: "graphene-k2", Bank: 0, Row: 7, Value: 2})
	s.Emit(Event{Seq: 2, Kind: KindWindowReset, Bank: 1, Fields: map[string]int64{"acts": 10}})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		if e.Kind == "" {
			t.Errorf("line %d lost its kind", lines)
		}
	}
	if lines != 2 {
		t.Errorf("%d lines, want 2", lines)
	}
}

func TestCollectByKind(t *testing.T) {
	c := &Collect{}
	c.Emit(Event{Kind: "a"})
	c.Emit(Event{Kind: "b"})
	c.Emit(Event{Kind: "a"})
	if k := c.Kinds(); k["a"] != 2 || k["b"] != 1 {
		t.Errorf("kinds = %v", k)
	}
	if got := c.ByKind("a"); len(got) != 2 {
		t.Errorf("ByKind(a) = %+v", got)
	}
}

// TestNewFromPaths drives Flags.Start, the commands' one entry point for
// their observability and profiling flags, on the -metrics, -events and
// -pprof values.
func TestNewFromPaths(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		rec, addr, stop, err := Flags{}.Start()
		if err != nil || rec != nil || addr != "" {
			t.Fatalf("rec=%v addr=%q err=%v, want nil/\"\"/nil", rec, addr, err)
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("debug-only", func(t *testing.T) {
		rec, _, stop, err := Flags{Pprof: "127.0.0.1:0"}.Start()
		if err != nil || rec == nil {
			t.Fatalf("rec=%v err=%v, want a live Recorder for the debug endpoint", rec, err)
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("files", func(t *testing.T) {
		dir := t.TempDir()
		mpath := filepath.Join(dir, "metrics.json")
		epath := filepath.Join(dir, "events.jsonl")
		rec, _, stop, err := Flags{Metrics: mpath, Events: epath}.Start()
		if err != nil {
			t.Fatal(err)
		}
		rec.Counter("n").Add(3)
		rec.Emit(Event{Kind: KindCellStart, Bank: -1, Label: "x"})
		if err := stop(); err != nil {
			t.Fatal(err)
		}
		mb, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(mb, &snap); err != nil {
			t.Fatalf("metrics file not JSON: %v\n%s", err, mb)
		}
		if snap.Counters["n"] != 3 || snap.Events != 1 {
			t.Errorf("snapshot = %+v", snap)
		}
		eb, err := os.ReadFile(epath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(eb)), "\n")
		if len(lines) != 1 || !json.Valid([]byte(lines[0])) {
			t.Errorf("events file = %q", eb)
		}
	})
	t.Run("bad-path", func(t *testing.T) {
		dir := t.TempDir()
		if _, _, stop, err := (Flags{Events: filepath.Join(dir, "no", "such", "dir", "e")}).Start(); err == nil || stop != nil {
			t.Errorf("unwritable events path: err=%v, stop nil: %t; want an error and a nil stop", err, stop == nil)
		}
		// The events file is created before the metrics path fails; the
		// failed Start removes it again.
		epath := filepath.Join(dir, "events.jsonl")
		_, _, stop, err := Flags{Events: epath, Metrics: filepath.Join(dir, "no", "such", "dir", "m")}.Start()
		if err == nil || stop != nil {
			t.Fatalf("unwritable metrics path: err=%v, stop nil: %t; want an error and a nil stop", err, stop == nil)
		}
		if _, err := os.Stat(epath); !os.IsNotExist(err) {
			t.Errorf("failed Start left %s behind (stat: %v)", epath, err)
		}
	})
}

// TestServeDebug exercises the debug server Start runs for -pprof: the
// bound address carries the port the kernel chose for :0, /metrics shows
// the live Recorder, and stop shuts the server down (a second stop
// returns at once).
func TestServeDebug(t *testing.T) {
	rec, addr, stop, err := Flags{Pprof: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("addr = %q, want the kernel-chosen port, not :0", addr)
	}
	rec.Counter("probe_total").Add(7)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Counters["probe_total"] != 7 {
		t.Fatalf("/metrics = %+v (%v), want probe_total 7", snap, err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("debug server still accepting after stop")
	}
}

// TestServeDebugBindFailureIsSynchronous pins the -pprof bugfix: a bind
// on an occupied port fails Start itself, not a message printed while the
// run goes on unobserved. The failed Start creates no file and leaves an
// existing profile file as it was.
func TestServeDebugBindFailureIsSynchronous(t *testing.T) {
	_, addr, stop, err := Flags{Pprof: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	dir := t.TempDir()
	cpath := filepath.Join(dir, "cpu.pprof")
	mpath := filepath.Join(dir, "mem.pprof")
	if err := os.WriteFile(cpath, []byte("earlier profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, stop2, err := (Flags{CPUProfile: cpath, MemProfile: mpath, Pprof: addr}).Start(); err == nil || stop2 != nil {
		t.Fatalf("second bind on %s: err=%v, stop nil: %t; want an error and a nil stop", addr, err, stop2 == nil)
	}
	if b, err := os.ReadFile(cpath); err != nil || string(b) != "earlier profile" {
		t.Errorf("failed Start changed the existing %s: %q (%v)", cpath, b, err)
	}
	if _, err := os.Stat(mpath); !os.IsNotExist(err) {
		t.Errorf("failed Start left %s behind (stat: %v)", mpath, err)
	}
}

// TestStartWritesProfiles: with both profile paths set, stop leaves a
// non-empty gzip-compressed pprof profile in each.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpath := filepath.Join(dir, "cpu.pprof")
	mpath := filepath.Join(dir, "mem.pprof")
	rec, _, stop, err := Flags{CPUProfile: cpath, MemProfile: mpath}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Errorf("profiles alone made a live Recorder")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpath, mpath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s is not gzip: %v", filepath.Base(path), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil || len(body) == 0 {
			t.Errorf("%s: %d bytes of profile (%v), want a non-empty profile", filepath.Base(path), len(body), err)
		}
	}
}

func TestDebugMuxMetrics(t *testing.T) {
	r := New()
	r.Counter("hits").Add(9)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["hits"] != 9 {
		t.Errorf("snapshot = %+v", snap)
	}
	// The pprof index must be reachable too.
	resp2, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("pprof index status %d", resp2.StatusCode)
	}
}
