package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/sim"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// goldenScale mirrors the golden differential harness in internal/sim:
// two banks, 64Ki rows, short traces that still cross several tREFI ticks
// and scheme trigger thresholds.
func goldenScale() sim.Scale {
	return sim.Scale{
		Geometry:           dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 64 * 1024},
		Timing:             dram.DDR4(),
		WorkloadAccesses:   20_000,
		AdversarialWindows: 0.1,
		Seed:               1,
	}
}

const goldenTRH = 12500

// goldenTraces encodes the golden harness's two workload shapes into the
// binary trace format — the exact bytes both the server session and the
// local replay consume.
func goldenTraces(t testing.TB) map[string][]byte {
	t.Helper()
	sc := goldenScale()
	rows := sc.Geometry.RowsPerBank
	total := int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
	out := map[string][]byte{}

	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, workload.S1(0, rows, 10, total)); err != nil {
		t.Fatal(err)
	}
	out["adversarial"] = append([]byte(nil), buf.Bytes()...)

	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := trace.WriteBinary(&buf, gen); err != nil {
		t.Fatal(err)
	}
	out["normal"] = append([]byte(nil), buf.Bytes()...)
	return out
}

// localRun replays the trace bytes through memctrl.RunBlocks with exactly
// the configuration the server derives from h — the reference side of the
// byte-identity check.
func localRun(t testing.TB, data []byte, h Hello) memctrl.Result {
	t.Helper()
	h = h.withDefaults()
	sc := sim.Scale{Timing: dram.DDR4(), Seed: *h.Seed}
	factory, _, err := sim.BuildScheme(h.Scheme, h.TRH, *h.K, h.Distance, h.Rows, sc)
	if err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	banks := br.Banks()
	if banks == 0 {
		banks = 1
	}
	cfg := memctrl.Config{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: banks, RowsPerBank: h.Rows},
		Timing:   dram.DDR4(),
		Factory:  factory,
	}
	if h.Oracle {
		cfg.TRH = h.TRH
	}
	res, err := memctrl.RunBlocks(cfg, br)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// canonical serializes a Result with TopVictims under a total order —
// the controller breaks disturbance ties arbitrarily, so both sides of
// the identity check get the same canonical sort (the discipline the
// golden harness established).
func canonical(t testing.TB, res memctrl.Result) []byte {
	t.Helper()
	sort.Slice(res.TopVictims, func(i, j int) bool {
		a, b := res.TopVictims[i], res.TopVictims[j]
		if a.Disturbance != b.Disturbance {
			return a.Disturbance > b.Disturbance
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// startServer boots a daemon on a free port and tears it down with the
// test.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s
}

// clientVerdict reads frames off a hand-driven client connection until
// the final verdict, discarding partial reports.
func clientVerdict(c *Client) (Report, error) {
	fr := &frameReader{r: c.conn, extend: func() {
		c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}}
	for {
		typ, payload, err := fr.next(nil, MaxFramePayload)
		if err != nil {
			return Report{}, fmt.Errorf("reading verdict: %w", noEOF(err))
		}
		switch typ {
		case FrameResult:
			var rep Report
			if err := json.Unmarshal(payload, &rep); err != nil {
				return Report{}, err
			}
			if rep.Partial {
				continue
			}
			return rep, nil
		case FrameError:
			return Report{}, &ServerError{Msg: string(payload)}
		default:
			return Report{}, fmt.Errorf("unexpected %c frame as verdict", typ)
		}
	}
}

// runSession executes one client session against the server.
func runSession(t testing.TB, addr string, h Hello, data []byte) (Report, error) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Run(h, bytes.NewReader(data))
}

// TestGoldenByteIdentity is the PR's E2E acceptance check: every registry
// scheme × both golden workloads streamed through a live daemon over TCP
// must produce a Result byte-identical to the local RunBlocks replay of
// the same trace bytes — 20 cells, well past the required 8.
func TestGoldenByteIdentity(t *testing.T) {
	traces := goldenTraces(t)
	s := startServer(t, Config{})
	cells := 0
	for _, scheme := range sim.SchemeNames() {
		for wl, data := range traces {
			h := Hello{
				Tenant: fmt.Sprintf("%s-%s", scheme, wl),
				Scheme: scheme, TRH: goldenTRH, K: Ptr(2), Distance: 1,
				Rows: 64 * 1024, Seed: Ptr(int64(1)), Oracle: true,
			}
			rep, err := runSession(t, s.Addr(), h, data)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, wl, err)
			}
			want := canonical(t, localRun(t, data, h))
			got := canonical(t, rep.Result)
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: server Result differs from local RunBlocks\nserver: %s\nlocal:  %s",
					scheme, wl, got, want)
				continue
			}
			if rep.Tenant != h.Tenant || rep.Session == 0 {
				t.Errorf("%s/%s: bad report envelope: %+v", scheme, wl, rep)
			}
			cells++
		}
	}
	if cells < 8 {
		t.Fatalf("only %d identical cells, acceptance floor is 8", cells)
	}
	t.Logf("byte-identical cells: %d", cells)
}

// TestServerErrors pins the failure replies: a bad scheme, a bad first
// frame, and a truncated trace stream must each come back as a clean
// ERROR frame, never a hang or a silent close.
func TestServerErrors(t *testing.T) {
	s := startServer(t, Config{MaxBanks: 8})
	data := goldenTraces(t)["adversarial"]

	if _, err := runSession(t, s.Addr(), Hello{Tenant: "t", Scheme: "no-such-scheme"}, data); err == nil {
		t.Error("unknown scheme: want server error")
	} else if _, ok := err.(*ServerError); !ok {
		t.Errorf("unknown scheme: got %v, want *ServerError", err)
	}

	if _, err := runSession(t, s.Addr(), Hello{Scheme: "graphene"}, data); err == nil {
		t.Error("empty tenant: want server error")
	}

	// Truncated trace: stream half the bytes then FIN. The codec's
	// torn-tail discipline must fail the session.
	if _, err := runSession(t, s.Addr(), Hello{Tenant: "torn"}, data[:len(data)/2]); err == nil {
		t.Error("torn trace: want server error")
	} else if _, ok := err.(*ServerError); !ok {
		t.Errorf("torn trace: got %v, want *ServerError", err)
	}

	// An empty stream (no trace bytes at all) is a torn magic.
	if _, err := runSession(t, s.Addr(), Hello{Tenant: "empty"}, nil); err == nil {
		t.Error("empty stream: want server error")
	}
}

// TestConcurrentTenants is the PR's race check (run under -race by the
// Makefile): many tenants stream concurrently while /metrics snapshots
// and the debug HTTP server read the same Recorder.
func TestConcurrentTenants(t *testing.T) {
	rec := obs.New()
	sink := &obs.Collect{}
	rec.SetSink(sink)
	s := startServer(t, Config{Obs: rec, MaxTenants: 4})
	dbg, err := obs.ServeDebug("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Shutdown(context.Background())

	data := goldenTraces(t)["adversarial"]
	const tenants = 8 // 2× MaxTenants, so the semaphore backpressure runs too

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := rec.Snapshot()
			if snap.Counters["serve_sessions_total"] < 0 {
				t.Error("negative session counter")
			}
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", dbg.Addr()))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	var wg sync.WaitGroup
	reports := make([]Report, tenants)
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = runSession(t, s.Addr(), Hello{
				Tenant: fmt.Sprintf("tenant-%d", i), Scheme: "graphene",
			}, data)
		}(i)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	var wantACTs int64
	for i := range reports {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		if reports[i].Result.ACTs == 0 {
			t.Fatalf("tenant %d: zero ACTs", i)
		}
		wantACTs += reports[i].Result.ACTs
	}
	snap := rec.Snapshot()
	if got := snap.Counters["serve_sessions_total"]; got != tenants {
		t.Errorf("serve_sessions_total = %d, want %d", got, tenants)
	}
	if got := snap.Counters["serve_acts_total"]; got != wantACTs {
		t.Errorf("serve_acts_total = %d, want %d", got, wantACTs)
	}
	if got := snap.Gauges["serve_tenants_active"]; got != 0 {
		t.Errorf("serve_tenants_active = %d after drain, want 0", got)
	}
	if snap.Counters["serve_bytes_in_total"] < int64(len(data))*tenants {
		t.Errorf("serve_bytes_in_total = %d, want at least %d", snap.Counters["serve_bytes_in_total"], int64(len(data))*tenants)
	}
	starts, finishes := 0, 0
	for _, e := range sink.Events() {
		switch e.Kind {
		case obs.KindSessionStart:
			starts++
		case obs.KindSessionFinish:
			finishes++
		}
	}
	if starts != tenants || finishes != tenants {
		t.Errorf("session events: %d starts, %d finishes, want %d each", starts, finishes, tenants)
	}
}

// TestShutdownDrains pins the SIGTERM discipline: Shutdown must wait for
// an in-flight session to deliver its report, and the checkpoint journal
// must carry it.
func TestShutdownDrains(t *testing.T) {
	ck, err := sched.OpenCheckpoint(t.TempDir() + "/sessions.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	s, err := New(Config{Addr: "127.0.0.1:0", Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	// Drive the frames by hand so Shutdown races an in-flight stream:
	// hello + half the data now, the rest after Shutdown begins.
	data := goldenTraces(t)["normal"]
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	payload, _ := json.Marshal(Hello{Tenant: "drainee"})
	if err := writeFrame(c2.conn, FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	half := len(data) / 2
	if err := writeFrame(c2.conn, FrameData, data[:half]); err != nil {
		t.Fatal(err)
	}
	waitAccepted(t, s, 1)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// New connections must be refused once draining starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		probe, err := Dial(s.Addr())
		if err != nil {
			break
		}
		probe.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Finish the in-flight stream; the drain must deliver its report.
	if err := writeFrame(c2.conn, FrameData, data[half:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c2.conn, FrameFin, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := clientVerdict(c2)
	if err != nil {
		t.Fatalf("drained session verdict: %v", err)
	}
	if rep.Result.ACTs == 0 {
		t.Fatal("drained session replayed zero ACTs")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	var journaled Report
	if !ck.Lookup(fmt.Sprintf("drainee/%d", rep.Session), &journaled) {
		t.Fatal("checkpoint journal misses the drained session's report")
	}
	if journaled.Result.ACTs != rep.Result.ACTs {
		t.Fatalf("journaled ACTs %d != reported %d", journaled.Result.ACTs, rep.Result.ACTs)
	}
}

// TestShutdownExpiredSeversConnections pins the other half of the drain
// contract: when the context expires first, Shutdown severs the stalled
// session and returns the context error instead of hanging.
func TestShutdownExpiredSeversConnections(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload, _ := json.Marshal(Hello{Tenant: "staller"})
	if err := writeFrame(c.conn, FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	// Stall: never send data, never FIN.
	waitAccepted(t, s, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// waitAccepted blocks until s's accept loop has taken n connections. A
// connection still in the listen backlog is not in flight: Shutdown
// closes the listener and the kernel resets it.
func waitAccepted(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.connsMu.Lock()
		got := len(s.conns)
		s.connsMu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d connection(s), want %d", got, n)
		}
	}
}
