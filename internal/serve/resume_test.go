package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// multiSegTrace encodes an adversarial trace long enough to span several
// binary segments (the codec cuts at 64Ki accesses), so partial reports
// and resume chunks actually exist.
func multiSegTrace(t testing.TB, acts int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, workload.S1(0, 64*1024, 10, acts)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// segmentCuts maps a binary trace stream's segment structure: the byte
// offset just past each segment's payload (cut[i] = end of segment i+1).
func segmentCuts(t testing.TB, data []byte) []int {
	t.Helper()
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off := len(trace.AppendBinaryHeader(nil, br.Name(), br.Banks(), br.Total(), br.Version()))
	var cuts []int
	br.OnSegment = func(p []byte) error {
		off += len(binary.AppendUvarint(nil, uint64(len(p)))) + len(p)
		cuts = append(cuts, off)
		return nil
	}
	var cb trace.ColBlock
	for {
		cb, err = br.NextCols(cb)
		if errors.Is(err, io.EOF) {
			return cuts
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// interrupt drives a hand-built session up to `cut` stream bytes with
// partial reports every segment, waits for `wantPartials` partial frames,
// then severs the connection — a client dying mid-stream. It returns the
// session handle from the last partial (0 when none were expected).
func interrupt(t *testing.T, addr string, h Hello, data []byte, cut, wantPartials int) int64 {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, FrameData, data[:cut]); err != nil {
		t.Fatal(err)
	}
	var handle int64
	fr := &frameReader{r: conn, extend: func() {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	}}
	for i := 0; i < wantPartials; i++ {
		typ, payload, err := fr.next(nil, MaxFramePayload)
		if err != nil {
			t.Fatalf("reading partial %d: %v", i+1, err)
		}
		if typ != FrameResult {
			t.Fatalf("partial %d: got %c frame (%s)", i+1, typ, payload)
		}
		var rep Report
		if err := json.Unmarshal(payload, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Partial {
			t.Fatalf("partial %d: report not marked partial: %+v", i+1, rep)
		}
		handle = rep.Session
	}
	return handle
}

// TestPartialReportCadence pins the streaming-report contract: with
// ReportEvery set, one partial Report per cadence boundary arrives before
// the final Report, with monotonically growing Segments/ACTs and the
// final Report carrying the segment total.
func TestPartialReportCadence(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	cuts := segmentCuts(t, data)
	if len(cuts) < 3 {
		t.Fatalf("trace spans %d segments, need >= 3", len(cuts))
	}
	s := startServer(t, Config{})

	for _, every := range []int{1, 3} {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var partials []Report
		c.OnPartial = func(rep Report) { partials = append(partials, rep) }
		rep, err := c.Run(Hello{Tenant: fmt.Sprintf("cadence-%d", every), ReportEvery: every}, bytes.NewReader(data))
		c.Close()
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if rep.Segments != len(cuts) {
			t.Errorf("every=%d: final Segments = %d, want %d", every, rep.Segments, len(cuts))
		}
		want := len(cuts) / every
		if len(partials) != want {
			t.Fatalf("every=%d: got %d partials, want %d", every, len(partials), want)
		}
		lastACTs := int64(0)
		for i, p := range partials {
			if !p.Partial || p.Resumed {
				t.Errorf("every=%d: partial %d flags wrong: %+v", every, i, p)
			}
			if p.Segments != (i+1)*every {
				t.Errorf("every=%d: partial %d Segments = %d, want %d", every, i, p.Segments, (i+1)*every)
			}
			if p.ACTs <= lastACTs {
				t.Errorf("every=%d: partial %d ACTs = %d, not growing past %d", every, i, p.ACTs, lastACTs)
			}
			lastACTs = p.ACTs
			if p.Session != rep.Session || p.Tenant != rep.Tenant {
				t.Errorf("every=%d: partial %d envelope mismatch: %+v vs final %+v", every, i, p, rep)
			}
		}
	}
}

// normalizeReport clears the fields that legitimately differ between a
// resumed and an uninterrupted run — the session handle (a server
// sequence number) and wall time — and canonicalizes Result ordering.
func normalizeReport(t testing.TB, rep Report) []byte {
	t.Helper()
	rep.Session = 0
	rep.WallUS = 0
	canonical(t, rep.Result) // sorts TopVictims in place
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeByteIdentity is the tentpole acceptance check at the serve
// layer: a session severed mid-stream and resumed — against the same
// daemon and against a restarted daemon that reopened the same journal —
// must deliver a final Report byte-identical (modulo session handle and
// wall time) to an uninterrupted replay, over live TCP, for deterministic
// and seeded-probabilistic schemes alike.
func TestResumeByteIdentity(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	cuts := segmentCuts(t, data)
	if len(cuts) < 3 {
		t.Fatalf("trace spans %d segments, need >= 3", len(cuts))
	}

	for _, scheme := range []string{"graphene", "para", "cbt"} {
		t.Run(scheme, func(t *testing.T) {
			h := Hello{Tenant: "resumer-" + scheme, Scheme: scheme, TRH: goldenTRH,
				Rows: 64 * 1024, Oracle: true, ReportEvery: 1}

			// Reference: uninterrupted run on its own daemon+journal.
			ckRef, err := sched.OpenCheckpoint(t.TempDir() + "/ref.ckpt")
			if err != nil {
				t.Fatal(err)
			}
			defer ckRef.Close()
			sRef := startServer(t, Config{Checkpoint: ckRef})
			repRef, err := runSession(t, sRef.Addr(), h, data)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := normalizeReport(t, repRef)

			// Interrupted: stream two full segments, collect two partials,
			// sever the connection.
			ckPath := t.TempDir() + "/sessions.ckpt"
			ck, err := sched.OpenCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Addr: "127.0.0.1:0", Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- s.Serve() }()
			handle := interrupt(t, s.Addr(), h, data, cuts[1], 2)
			if handle == 0 {
				t.Fatal("no session handle from partial reports")
			}

			// Resume against the same daemon.
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			var acks []Report
			c.OnPartial = func(rep Report) {
				if rep.Resumed {
					acks = append(acks, rep)
				}
			}
			repResumed, err := c.Run(Hello{Tenant: h.Tenant, Resume: &Resume{Session: handle}}, bytes.NewReader(data))
			c.Close()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(acks) != 1 || acks[0].Segments != 2 {
				t.Fatalf("resume ack: %+v, want one ack restoring 2 segments", acks)
			}
			if repResumed.Session != handle {
				t.Errorf("resumed session handle = %d, want %d", repResumed.Session, handle)
			}
			if got := normalizeReport(t, repResumed); !bytes.Equal(got, wantBytes) {
				t.Errorf("resumed Report differs from uninterrupted run\nresumed: %s\nwant:    %s", got, wantBytes)
			}

			// Restart: shut the daemon down, reopen the same journal in a
			// fresh daemon, sever another session there, resume across the
			// restart boundary.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Fatalf("serve: %v", err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			ck2, err := sched.OpenCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			defer ck2.Close()
			s2 := startServer(t, Config{Checkpoint: ck2})
			c2, err := Dial(s2.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			rep2, err := c2.Run(Hello{Tenant: h.Tenant, Resume: &Resume{Session: handle}}, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("resume across restart: %v", err)
			}
			if got := normalizeReport(t, rep2); !bytes.Equal(got, wantBytes) {
				t.Errorf("restart-resumed Report differs from uninterrupted run\ngot:  %s\nwant: %s", got, wantBytes)
			}
		})
	}
}

// TestResumeZeroChunks covers the earliest possible interruption: the
// session died after its meta was journaled (the trace header arrived)
// but before any chunk. The resume ack restores zero segments and the
// client re-streams the whole trace.
func TestResumeZeroChunks(t *testing.T) {
	data := multiSegTrace(t, 200_000)
	cuts := segmentCuts(t, data)
	ck, err := sched.OpenCheckpoint(t.TempDir() + "/zero.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := startServer(t, Config{Checkpoint: ck})

	h := Hello{Tenant: "early", ReportEvery: 1}
	// Half of segment 1: header + some payload, no complete segment.
	interrupt(t, s.Addr(), h, data, cuts[0]/2, 0)

	// The severed session's handle is the daemon's first sequence number.
	// Wait for the meta record to land (the session fails asynchronously).
	deadline := time.Now().Add(10 * time.Second)
	for !ck.Lookup(resumeMetaKey("early", 1), new(resumeMeta)) {
		if time.Now().After(deadline) {
			t.Fatal("session meta never journaled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ack Report
	c.OnPartial = func(rep Report) {
		if rep.Resumed {
			ack = rep
		}
	}
	rep, err := c.Run(Hello{Tenant: "early", Resume: &Resume{Session: 1}}, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("zero-chunk resume: %v", err)
	}
	if !ack.Resumed || ack.Segments != 0 {
		t.Fatalf("ack = %+v, want Resumed with 0 segments", ack)
	}
	want := canonical(t, localRun(t, data, h))
	if got := canonical(t, rep.Result); !bytes.Equal(got, want) {
		t.Errorf("zero-chunk resumed Result differs from local replay")
	}
}

// TestResumeErrors pins the refusal paths: an unknown handle, and a
// daemon running without a journal at all.
func TestResumeErrors(t *testing.T) {
	data := multiSegTrace(t, 70_000)

	ck, err := sched.OpenCheckpoint(t.TempDir() + "/err.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s := startServer(t, Config{Checkpoint: ck})
	_, err = runSession(t, s.Addr(), Hello{Tenant: "x", Resume: &Resume{Session: 999}}, data)
	var srvErr *ServerError
	if !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("unknown handle: err = %v, want ServerError naming the unknown session", err)
	}

	bare := startServer(t, Config{})
	_, err = runSession(t, bare.Addr(), Hello{Tenant: "x", Resume: &Resume{Session: 1}}, data)
	if !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "checkpoint journal") {
		t.Fatalf("journal-less daemon: err = %v, want ServerError naming the missing journal", err)
	}

	if _, err := runSession(t, s.Addr(), Hello{Tenant: "x", Resume: &Resume{Session: -4}}, data); err == nil {
		t.Fatal("negative resume handle accepted")
	}
}

// TestShutdownRefusesHeldConnection pins the accept-stall fix: with every
// tenant slot busy, a connection the accept loop already holds must get
// an ERROR frame when Shutdown begins — not hang until a slot frees.
func TestShutdownRefusesHeldConnection(t *testing.T) {
	data := goldenTraces(t)["normal"]
	s, err := New(Config{Addr: "127.0.0.1:0", MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	// Session A occupies the only slot, mid-stream.
	a, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	payload, _ := json.Marshal(Hello{Tenant: "occupant"})
	if err := writeFrame(a.conn, FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	half := len(data) / 2
	if err := writeFrame(a.conn, FrameData, data[:half]); err != nil {
		t.Fatal(err)
	}

	// Connection B gets accepted, then the accept loop blocks on the full
	// semaphore while holding it.
	b, err := net.DialTimeout("tcp", s.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	time.Sleep(100 * time.Millisecond)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// B must be answered while A is still unfinished.
	fr := &frameReader{r: b, extend: func() {
		b.SetReadDeadline(time.Now().Add(5 * time.Second))
	}}
	typ, msg, err := fr.next(nil, MaxFramePayload)
	if err != nil {
		t.Fatalf("held connection got no reply: %v", err)
	}
	if typ != FrameError || !strings.Contains(string(msg), "draining") {
		t.Fatalf("held connection got %c %q, want a draining ERROR frame", typ, msg)
	}

	// Now let A finish; the drain must still deliver its report.
	if err := writeFrame(a.conn, FrameData, data[half:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(a.conn, FrameFin, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := clientVerdict(a)
	if err != nil {
		t.Fatalf("occupant verdict: %v", err)
	}
	if rep.Result.ACTs == 0 {
		t.Fatal("occupant replayed zero ACTs")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSessionEventParity pins the event-asymmetry fix: sessions that
// never started executing (admission failures) emit neither start nor
// finish, and every started session emits exactly one of each — so the
// counts always pair, with mixed good and bad sessions.
func TestSessionEventParity(t *testing.T) {
	rec := obs.New()
	sink := &obs.Collect{}
	rec.SetSink(sink)
	s := startServer(t, Config{Obs: rec})
	data := goldenTraces(t)["adversarial"]

	if _, err := runSession(t, s.Addr(), Hello{Tenant: "good"}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(t, s.Addr(), Hello{Tenant: "bad-scheme", Scheme: "nope"}, data); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := runSession(t, s.Addr(), Hello{Scheme: "graphene"}, data); err == nil {
		t.Fatal("empty tenant accepted")
	}
	if _, err := runSession(t, s.Addr(), Hello{Tenant: "bad-k", K: Ptr(0)}, data); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Torn mid-replay: started, so it must emit both events.
	if _, err := runSession(t, s.Addr(), Hello{Tenant: "torn"}, data[:len(data)/2]); err == nil {
		t.Fatal("torn stream accepted")
	}

	var starts, finishes int
	for _, e := range sink.Events() {
		switch e.Kind {
		case obs.KindSessionStart:
			starts++
		case obs.KindSessionFinish:
			finishes++
		}
	}
	if starts != finishes {
		t.Errorf("event asymmetry: %d starts vs %d finishes", starts, finishes)
	}
	if starts != 2 { // good + torn executed; three admission failures did not
		t.Errorf("starts = %d, want 2 (admission failures must not emit events)", starts)
	}
}

// TestSameTenantSerialized pins the shard contract: two concurrent
// sessions of one tenant run strictly one after the other (same shard),
// visible as start/finish/start/finish in the event stream.
func TestSameTenantSerialized(t *testing.T) {
	rec := obs.New()
	sink := &obs.Collect{}
	rec.SetSink(sink)
	s := startServer(t, Config{Obs: rec, Shards: 4})
	data := goldenTraces(t)["adversarial"]

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := runSession(t, s.Addr(), Hello{Tenant: "pinned"}, data)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	var kinds []string
	for _, e := range sink.Events() {
		if e.Label != "pinned" {
			continue
		}
		switch e.Kind {
		case obs.KindSessionStart, obs.KindSessionFinish:
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{obs.KindSessionStart, obs.KindSessionFinish, obs.KindSessionStart, obs.KindSessionFinish}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("sessions interleaved on one tenant: events = %v, want %v", kinds, want)
		}
	}
}

// TestHelloExplicitZeros pins the zero-value fix: an explicit seed 0
// survives the JSON round trip and reaches the scheme, an explicit k 0 is
// a loud validation error, and absent fields still get the defaults.
func TestHelloExplicitZeros(t *testing.T) {
	var h Hello
	if err := json.Unmarshal([]byte(`{"tenant":"t","seed":0,"k":3}`), &h); err != nil {
		t.Fatal(err)
	}
	h = h.withDefaults()
	if h.Seed == nil || *h.Seed != 0 {
		t.Fatalf("explicit seed 0 became %v", h.Seed)
	}
	if h.K == nil || *h.K != 3 {
		t.Fatalf("explicit k 3 became %v", h.K)
	}
	if err := h.validate(); err != nil {
		t.Fatalf("seed 0 rejected: %v", err)
	}

	var hz Hello
	if err := json.Unmarshal([]byte(`{"tenant":"t","k":0}`), &hz); err != nil {
		t.Fatal(err)
	}
	hz = hz.withDefaults()
	if err := hz.validate(); err == nil || !strings.Contains(err.Error(), "reset-window") {
		t.Fatalf("explicit k 0: err = %v, want a loud reset-window error", err)
	}

	var hd Hello
	if err := json.Unmarshal([]byte(`{"tenant":"t"}`), &hd); err != nil {
		t.Fatal(err)
	}
	hd = hd.withDefaults()
	if *hd.K != 2 || *hd.Seed != 1 {
		t.Fatalf("defaults = k %d seed %d, want 2 and 1", *hd.K, *hd.Seed)
	}

	// Marshal side: explicit zeros survive encoding (pointers defeat
	// omitempty's zero-value conflation).
	out, err := json.Marshal(Hello{Tenant: "t", K: Ptr(7), Seed: Ptr(int64(0))})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"seed":0`) || !strings.Contains(string(out), `"k":7`) {
		t.Fatalf("marshal dropped explicit values: %s", out)
	}

	// Live: seed 0 with a probabilistic scheme replays byte-identically to
	// the local reference configured with seed 0 — proof the zero reached
	// the engine rather than being rewritten to 1.
	s := startServer(t, Config{})
	data := goldenTraces(t)["adversarial"]
	hp := Hello{Tenant: "para-zero", Scheme: "para", Seed: Ptr(int64(0)), Oracle: true}
	rep, err := runSession(t, s.Addr(), hp, data)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(t, localRun(t, data, hp))
	if got := canonical(t, rep.Result); !bytes.Equal(got, want) {
		t.Error("seed 0 session does not match local seed-0 replay")
	}
	one := Hello{Tenant: "para-one", Scheme: "para", Seed: Ptr(int64(1)), Oracle: true}
	if other := canonical(t, localRun(t, data, one)); bytes.Equal(want, other) {
		t.Skip("seed 0 and seed 1 coincide on this trace; identity check is vacuous")
	}

	if _, err := runSession(t, s.Addr(), Hello{Tenant: "zero-k", K: Ptr(0)}, data); err == nil {
		t.Fatal("server accepted k=0")
	}
}
