package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/sim"
	"graphene/internal/trace"
)

// Hello is the tenant handshake: who is streaming and which mitigation
// configuration their bank pipelines run. Absent fields take the golden
// defaults (DESIGN.md §12), so a minimal client sends only Tenant and
// Scheme. K and Seed are pointers because their zero values are
// meaningful: an explicit "seed": 0 is honored verbatim and an explicit
// "k": 0 is rejected loudly — neither is silently rewritten to a default.
type Hello struct {
	// Tenant names the stream for reports, metrics, and the checkpoint
	// journal. Required; at most 64 bytes, no control characters.
	Tenant string `json:"tenant"`

	// Scheme selects the per-bank mitigation engine by registry name
	// (any of sim.SchemeNames). Default "graphene".
	Scheme string `json:"scheme,omitempty"`

	// TRH is the Row Hammer threshold the scheme is provisioned for.
	// Default 12500 (the golden harness threshold).
	TRH int64 `json:"trh,omitempty"`

	// K is Graphene's reset-window divisor. Absent means 2; an explicit 0
	// is a validation error, not a silent default.
	K *int `json:"k,omitempty"`

	// Distance is the neighborhood refresh distance. Default 1.
	Distance int `json:"distance,omitempty"`

	// Rows is the per-bank row count of the simulated device. Default
	// 65536. The bank count comes from the trace stream's own header.
	Rows int `json:"rows,omitempty"`

	// Profile selects the device generation the session replays on:
	// "ddr4" (default) or "ddr5" (DDR5-4800 timing with tRAS and Refresh
	// Management). The profile sets the replay timing only; geometry
	// still comes from Rows and the trace's own bank count.
	Profile string `json:"profile,omitempty"`

	// Rowpress makes the session's trackers duration-aware: trace dwell
	// columns weigh counter increments (each scheme's Rowpress knob).
	// Off by default — dwell columns still replay, but trackers count
	// plain activations.
	Rowpress bool `json:"rowpress,omitempty"`

	// Seed drives the probabilistic schemes (para, prohit, mrloc, trr).
	// Absent means 1; an explicit 0 is a legal seed and is used as-is.
	Seed *int64 `json:"seed,omitempty"`

	// Oracle arms the ground-truth disturbance oracle at TRH, so the
	// Report carries bit-flip verdicts and residual-pressure victims.
	// Off by default: a production mitigation daemon has no ground
	// truth, and the oracle costs per-ACT accounting.
	Oracle bool `json:"oracle,omitempty"`

	// ReportEvery asks for a streaming partial Report (an R frame with
	// Partial set) every ReportEvery fully decoded trace segments, in
	// addition to the final Report at FIN. When the daemon also runs a
	// checkpoint journal, the same cadence journals the replayed raw
	// segments, which is what makes the session resumable. 0 (default)
	// means no partials and no resume journal.
	ReportEvery int `json:"report_every,omitempty"`

	// Resume, when set, asks to continue an interrupted session instead
	// of starting a new one: the client presents the Session from its
	// last partial Report, the server restores the journaled prefix and
	// acknowledges how many segments it already holds, and the client
	// streams only the remainder. The journaled session's own Hello is
	// authoritative for scheme and parameters — this hello's other
	// fields (beyond Tenant) are ignored on resume.
	Resume *Resume `json:"resume,omitempty"`
}

// Resume identifies the interrupted session to continue; the tenant comes
// from the enclosing Hello, and the pair must match a journaled session.
type Resume struct {
	Session int64 `json:"session"`
}

// Ptr returns a pointer to v — the ergonomic way to fill Hello's
// explicit-zero-capable fields (K, Seed) from literals.
func Ptr[T any](v T) *T { return &v }

// withDefaults fills the golden defaults into absent fields. Explicit
// values — including explicit zeros in the pointer fields — are kept
// verbatim for validate to judge.
func (h Hello) withDefaults() Hello {
	if h.Scheme == "" {
		h.Scheme = "graphene"
	}
	if h.TRH == 0 {
		h.TRH = 12500
	}
	if h.K == nil {
		h.K = Ptr(2)
	}
	if h.Distance == 0 {
		h.Distance = 1
	}
	if h.Rows == 0 {
		h.Rows = 64 * 1024
	}
	if h.Seed == nil {
		h.Seed = Ptr(int64(1))
	}
	return h
}

// validate rejects hellos the daemon must not act on.
func (h Hello) validate() error {
	if h.Tenant == "" {
		return fmt.Errorf("serve: hello: tenant name is required")
	}
	if len(h.Tenant) > 64 {
		return fmt.Errorf("serve: hello: tenant name is %d bytes, limit 64", len(h.Tenant))
	}
	for i := 0; i < len(h.Tenant); i++ {
		if h.Tenant[i] < 0x20 || h.Tenant[i] == 0x7f {
			return fmt.Errorf("serve: hello: tenant name contains control byte 0x%02x", h.Tenant[i])
		}
	}
	if h.K != nil && *h.K <= 0 {
		return fmt.Errorf("serve: hello: k: %d is not a valid reset-window divisor", *h.K)
	}
	if h.TRH < 0 || h.Distance < 0 || h.Rows < 0 || h.Rows > trace.MaxRow+1 {
		return fmt.Errorf("serve: hello: negative or out-of-range parameter")
	}
	if h.ReportEvery < 0 {
		return fmt.Errorf("serve: hello: report_every: %d is negative", h.ReportEvery)
	}
	if _, err := dram.ProfileByName(h.Profile); err != nil {
		return fmt.Errorf("serve: hello: %w", err)
	}
	if h.Resume != nil && h.Resume.Session <= 0 {
		return fmt.Errorf("serve: hello: resume: session %d is not a valid handle", h.Resume.Session)
	}
	return nil
}

// Report is the server's verdict for one tenant session: the full replay
// Result plus the headline numbers a tenant dashboard wants without
// digging — flips, refresh overhead, and the serving wall time.
//
// With Hello.ReportEvery set, the session also streams partial Reports
// (Partial true) mid-replay: those carry the running Segments and ACTs
// counts and the Session handle to resume with, but no Result. A resumed
// session's first frame is a partial with Resumed set — the
// acknowledgment telling the client how many Segments to skip.
type Report struct {
	Tenant   string  `json:"tenant"`
	Session  int64   `json:"session"`
	Scheme   string  `json:"scheme"` // display name (graphene-k2, cbt-682, ...)
	Flips    int     `json:"flips"`
	Overhead float64 `json:"overhead"` // victim rows / auto-refreshed rows
	WallUS   int64   `json:"wall_us"`  // serving wall time, microseconds

	// Partial marks a mid-session streaming report; the final Report at
	// FIN never sets it.
	Partial bool `json:"partial,omitempty"`
	// Resumed marks the resume acknowledgment (always also Partial):
	// Segments tells the client how much prefix to skip.
	Resumed bool `json:"resumed,omitempty"`
	// Segments counts trace segments fully replayed so far (final
	// Reports carry the total).
	Segments int `json:"segments,omitempty"`
	// ACTs counts accesses replayed so far; only partial reports set it
	// (the final Report's Result carries the authoritative count).
	ACTs int64 `json:"acts,omitempty"`

	Result memctrl.Result `json:"result"`
}

// Config parameterizes the daemon.
type Config struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string

	// MaxTenants bounds concurrent sessions. When every slot is busy the
	// accept loop stops pulling new connections — backpressure at the
	// listener, not an error. Default 64.
	MaxTenants int

	// MaxBanks bounds one tenant's bank count. The trace header is
	// client-controlled and per-bank pipeline state is real memory, so a
	// hostile header claiming trace.MaxBank banks must fail the session,
	// not the daemon. Default 1024.
	MaxBanks int

	// Shards is the number of session worker shards. Each accepted
	// session is pinned to the shard its tenant name hashes to
	// (sched.ShardOf), so one tenant's sessions serialize in arrival
	// order while distinct tenants run on independent pipelines — N
	// cores serve N pipelines with bounded queues. Default GOMAXPROCS.
	Shards int

	// ShardQueue bounds each shard's pending-session queue; past it the
	// admitting goroutine blocks (backpressure behind the MaxTenants
	// semaphore). Default 8.
	ShardQueue int

	// IdleTimeout is the per-frame read deadline: a client that sends
	// nothing for this long fails its session. Default 2m.
	IdleTimeout time.Duration

	// Obs, when non-nil, feeds the daemon's live metrics (/metrics on
	// obs.DebugMux) and session events: serve_sessions_total,
	// serve_acts_total, serve_bytes_in_total, serve_session_errors_total,
	// serve_tenants_active, and per-shard shard_<i>_queued /
	// shard_<i>_busy / shard_<i>_jobs_total.
	Obs *obs.Recorder

	// ReplayObs additionally attaches Obs to every tenant's replay
	// pipeline (memctrl's per-bank NRR events and counters). Those
	// counters are atomics shared across all tenants and updated on every
	// mitigator call, so it is a debugging mode, off by default — the
	// serve-path throughput gate runs without it.
	ReplayObs bool

	// Checkpoint, when non-nil, journals every finished session's Report
	// under "tenant/session" — the drain-then-report record a SIGTERM'd
	// daemon leaves behind — and, for sessions with ReportEvery set, the
	// replayed raw segments under "resume/tenant/session/..." so a
	// reconnecting client can continue where the interruption hit.
	// Nil-safe by sched.Checkpoint's contract.
	Checkpoint *sched.Checkpoint

	// Logf, when non-nil, receives one line per session outcome and per
	// server lifecycle step.
	Logf func(format string, args ...any)
}

// Server is one listening daemon. Create with New, run with Serve, stop
// with Shutdown.
type Server struct {
	cfg  Config
	ln   net.Listener
	pool *sched.Shards

	sessions  *obs.Counter
	errors    *obs.Counter
	acts      *obs.Counter
	bytesIn   *obs.Counter
	active    *obs.Gauge
	seq       atomic.Int64
	closing   atomic.Bool
	closeCh   chan struct{}
	wg        sync.WaitGroup
	connsMu   sync.Mutex
	conns     map[net.Conn]struct{}
	semaphore chan struct{}
}

// New binds cfg.Addr and returns a server ready to Serve. Binding is
// synchronous — a bad address fails here, not in a goroutine's log line.
func New(cfg Config) (*Server, error) {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.MaxBanks <= 0 {
		cfg.MaxBanks = 1024
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Totals reads these whether or not a Recorder is set: without one they
	// are the server's own counters, bumped per session and per wire read,
	// never per ACT.
	counter := func(name string) *obs.Counter {
		if c := cfg.Obs.Counter(name); c != nil {
			return c
		}
		return new(obs.Counter)
	}
	return &Server{
		cfg:       cfg,
		ln:        ln,
		pool:      sched.NewShards(cfg.Shards, cfg.ShardQueue, cfg.Obs),
		sessions:  counter("serve_sessions_total"),
		errors:    counter("serve_session_errors_total"),
		acts:      counter("serve_acts_total"),
		bytesIn:   counter("serve_bytes_in_total"),
		active:    cfg.Obs.Gauge("serve_tenants_active"),
		closeCh:   make(chan struct{}),
		conns:     map[net.Conn]struct{}{},
		semaphore: make(chan struct{}, cfg.MaxTenants),
	}, nil
}

// Totals is the daemon's lifetime session accounting: sessions admitted,
// sessions failed, ACTs replayed, and wire bytes read.
type Totals struct {
	Sessions, Errors, ACTs, BytesIn int64
}

// Totals returns the session accounting so far. It counts whether or not
// Config.Obs is set; with a Recorder it reads the serve_* counters.
func (s *Server) Totals() Totals {
	return Totals{Sessions: s.sessions.Value(), Errors: s.errors.Value(), ACTs: s.acts.Value(), BytesIn: s.bytesIn.Value()}
}

// Addr returns the listener's actual address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shards returns the session shard count.
func (s *Server) Shards() int { return s.pool.N() }

// logf emits one daemon log line when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts sessions until Shutdown closes the listener. It returns
// nil on a clean shutdown, the accept error otherwise.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		// Tenant-slot backpressure: past MaxTenants concurrent sessions
		// the accept loop holds here, queueing connections in the kernel
		// rather than spawning unbounded pipelines. A shutdown that
		// arrives while we hold an accepted connection must not strand
		// it — refuse it with an ERROR frame instead of hanging the
		// client until some unrelated session frees a slot.
		select {
		case s.semaphore <- struct{}{}:
		case <-s.closeCh:
			s.refuse(conn)
			return nil
		}
		if s.closing.Load() {
			<-s.semaphore
			s.refuse(conn)
			return nil
		}
		s.track(conn, true)
		s.wg.Add(1)
		go s.admit(conn)
	}
}

// refuse answers a connection the draining daemon will not serve, so the
// client sees a deliberate refusal instead of a silent close or a hang.
func (s *Server) refuse(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	writeFrame(conn, FrameError, []byte("daemon is draining, not accepting sessions"))
	conn.Close()
}

// track registers a live connection so an expired drain can sever it.
func (s *Server) track(c net.Conn, add bool) {
	s.connsMu.Lock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
	s.connsMu.Unlock()
}

// Shutdown drains the daemon: the listener closes immediately (no new
// sessions), in-flight sessions run to completion — each shard finishing
// its queue in submission order — and deliver their reports, and only
// then does Shutdown return. If ctx expires first the remaining
// connections are severed and ctx.Err() comes back — the
// drain-then-report discipline rhsimd runs on SIGTERM.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closing.Swap(true) {
		// Second call: just wait with the caller's deadline.
	} else {
		s.ln.Close()
		close(s.closeCh)
		s.logf("serve: draining %d active session(s)", s.active.Value())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		<-done
		return ctx.Err()
	}
}

// admit runs the handshake for one accepted connection and pins the
// session onto its tenant's shard. Only the cheap, blocking-on-the-client
// part (reading and validating the hello) happens here; the replay itself
// is the shard job, so a slow handshake never occupies a worker.
func (s *Server) admit(conn net.Conn) {
	id := s.seq.Add(1)
	s.sessions.Inc()

	var releaseOnce sync.Once
	release := func() {
		releaseOnce.Do(func() {
			s.track(conn, false)
			conn.Close()
			<-s.semaphore
			s.wg.Done()
		})
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	fr := &frameReader{
		r: br,
		extend: func() {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		},
	}
	fr.count = s.bytesIn.Add

	sn, err := s.handshake(conn, fr, id)
	if err != nil {
		tenant := ""
		if sn != nil {
			tenant = sn.h.Tenant
		}
		s.fail(conn, id, tenant, false, err)
		release()
		return
	}
	if err := s.pool.Submit(sn.h.Tenant, func() {
		sn.run()
		release()
	}); err != nil {
		s.fail(conn, id, sn.h.Tenant, false, fmt.Errorf("daemon is draining, not accepting sessions: %w", err))
		release()
	}
}

// handshake reads and validates the HELLO frame and resolves the session
// parameters — from the hello itself, or from the journal on resume. The
// returned session (when non-nil on error) carries at least the tenant
// name for logging.
func (s *Server) handshake(conn net.Conn, fr *frameReader, id int64) (*session, error) {
	typ, payload, err := fr.next(nil, maxHelloPayload)
	if err != nil {
		return nil, fmt.Errorf("reading hello: %w", noEOF(err))
	}
	if typ != FrameHello {
		return nil, fmt.Errorf("first frame is %c, want H", typ)
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("decoding hello: %w", err)
	}
	h = h.withDefaults()
	if err := h.validate(); err != nil {
		return &session{h: h}, err
	}

	sn := &session{srv: s, conn: conn, fr: fr, handle: id, h: h}
	if h.Resume != nil {
		jh, restored, err := s.prepareResume(h)
		if err != nil {
			return sn, err
		}
		sn.h, sn.restored, sn.handle = jh, restored, h.Resume.Session
	}

	// The journaled hello is authoritative on resume, so the profile —
	// like every other parameter — resolves from sn.h, not h.
	prof, err := dram.ProfileByName(sn.h.Profile)
	if err != nil {
		return sn, fmt.Errorf("serve: hello: %w", err)
	}
	sn.timing = prof.Timing
	sc := sim.Scale{Timing: prof.Timing, Seed: *sn.h.Seed, Rowpress: sn.h.Rowpress}
	factory, schemeName, err := sim.BuildScheme(sn.h.Scheme, sn.h.TRH, *sn.h.K, sn.h.Distance, sn.h.Rows, sc)
	if err != nil {
		return sn, err
	}
	sn.factory, sn.scheme = factory, schemeName
	return sn, nil
}

// session is one admitted tenant session: handshake done, parameters
// resolved, waiting for (or running on) its tenant's shard.
type session struct {
	srv    *Server
	conn   net.Conn
	fr     *frameReader
	handle int64 // the Report session handle: this connection's number, the original on resume

	h        Hello
	factory  mitigation.Factory
	scheme   string
	timing   dram.Timing   // the resolved device profile's timing
	restored *restoreState // non-nil when resuming
}

// run executes the session on its shard: per-(tenant, bank) replay,
// verdict. The session-start event fires here — on the shard, when the
// session actually begins executing — so starts and finishes always pair:
// admission failures emit neither.
func (sn *session) run() {
	s := sn.srv
	h := sn.h
	s.cfg.Obs.Emit(obs.Event{Kind: obs.KindSessionStart, Bank: -1, Label: h.Tenant, Value: sn.handle, Detail: sn.scheme})
	s.active.Add(1)
	defer s.active.Add(-1)

	if sn.restored != nil {
		// Acknowledge the resume before touching the stream: the client
		// is waiting to learn how many segments to skip.
		ack := Report{Tenant: h.Tenant, Session: sn.handle, Scheme: sn.scheme,
			Partial: true, Resumed: true, Segments: sn.restored.segments}
		if err := sn.writeReport(ack); err != nil {
			s.fail(sn.conn, sn.handle, h.Tenant, true, fmt.Errorf("writing resume ack: %w", err))
			return
		}
	}

	start := time.Now()
	rep, err := sn.replay()
	if err != nil {
		s.fail(sn.conn, sn.handle, h.Tenant, true, err)
		return
	}
	rep.Tenant = h.Tenant
	rep.Session = sn.handle
	rep.WallUS = time.Since(start).Microseconds()

	s.acts.Add(rep.Result.ACTs)
	if err := s.cfg.Checkpoint.Record(fmt.Sprintf("%s/%d", h.Tenant, sn.handle), rep); err != nil {
		s.logf("serve: checkpoint: session %d (%s): %v", sn.handle, h.Tenant, err)
	}
	s.cfg.Obs.Emit(obs.Event{Kind: obs.KindSessionFinish, Bank: -1, Label: h.Tenant, Value: sn.handle})

	if err := sn.writeReport(rep); err != nil {
		s.errors.Inc()
		s.logf("serve: session %d (%s): writing result: %v", sn.handle, h.Tenant, err)
		return
	}
	s.logf("serve: session %d (%s): %s, %d ACTs, %d banks, %d flips, %.3f overhead, %dus",
		sn.handle, h.Tenant, sn.scheme, rep.Result.ACTs, len(rep.Result.PerBank), rep.Flips, rep.Overhead, rep.WallUS)
}

// writeReport marshals rep into one RESULT frame under the write deadline.
func (sn *session) writeReport(rep Report) error {
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	sn.conn.SetWriteDeadline(time.Now().Add(sn.srv.cfg.IdleTimeout))
	return writeFrame(sn.conn, FrameResult, out)
}

// replay decodes the session's trace stream and drives it through the
// per-bank pipelines. The dataReader→BlockReader→RunBlocks chain is the
// same columnar zero-alloc path the local tools replay files through; on
// resume the journaled prefix is spliced in front of the live stream, so
// the decoder sees one contiguous trace and the Result is byte-identical
// to an uninterrupted replay. The OnSegment hook — running on the replay
// router, the only writer during a replay — journals raw segments and
// paces the partial reports.
func (sn *session) replay() (Report, error) {
	s := sn.srv
	h := sn.h
	var src io.Reader = &dataReader{fr: sn.fr}
	if sn.restored != nil {
		src = io.MultiReader(bytes.NewReader(sn.restored.data), src)
	}
	reader, err := trace.NewBlockReader(src)
	if err != nil {
		return Report{}, fmt.Errorf("trace stream: %w", err)
	}
	banks := reader.Banks()
	if banks == 0 {
		banks = 1 // empty trace: keep a valid one-bank geometry
	}
	if banks > s.cfg.MaxBanks {
		return Report{}, fmt.Errorf("trace stream claims %d banks, daemon limit %d", banks, s.cfg.MaxBanks)
	}

	resumable := s.cfg.Checkpoint != nil && h.ReportEvery > 0
	if resumable && sn.restored == nil {
		meta := resumeMeta{Hello: h, Name: reader.Name(), Banks: reader.Banks(), Total: reader.Total(), Version: reader.Version()}
		meta.Hello.Resume = nil
		if err := s.cfg.Checkpoint.Record(resumeMetaKey(h.Tenant, sn.handle), meta); err != nil {
			return Report{}, fmt.Errorf("journaling session meta: %w", err)
		}
	}
	if every := h.ReportEvery; every > 0 {
		restoredSegs := 0
		if sn.restored != nil {
			restoredSegs = sn.restored.segments
		}
		var spool []byte
		reader.OnSegment = func(p []byte) error {
			n := reader.Segments()
			if n <= restoredSegs {
				return nil // replayed from the journal; already reported
			}
			if resumable {
				spool = binary.AppendUvarint(spool, uint64(len(p)))
				spool = append(spool, p...)
			}
			if n%every != 0 {
				return nil
			}
			if resumable {
				// Journal before reporting: a partial the client has seen
				// is a resume point the journal is guaranteed to hold.
				chunk := resumeChunk{Segments: every, Data: spool}
				if err := s.cfg.Checkpoint.Record(resumeChunkKey(h.Tenant, sn.handle, n/every-1), chunk); err != nil {
					return fmt.Errorf("journaling resume chunk: %w", err)
				}
				spool = spool[:0]
			}
			return sn.writeReport(Report{Tenant: h.Tenant, Session: sn.handle, Scheme: sn.scheme,
				Partial: true, Segments: n, ACTs: reader.Decoded()})
		}
	}

	cfg := memctrl.Config{
		Geometry: dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: banks, RowsPerBank: h.Rows},
		Timing:   sn.timing,
		Factory:  sn.factory,
	}
	if s.cfg.ReplayObs {
		cfg.Obs = s.cfg.Obs
	}
	if h.Oracle {
		cfg.TRH = h.TRH
	}
	res, err := memctrl.RunBlocks(cfg, reader)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Scheme:   sn.scheme,
		Flips:    len(res.Flips),
		Overhead: res.RefreshOverhead(),
		Segments: reader.Segments(),
		Result:   res,
	}, nil
}

// fail answers a broken session with an ERROR frame, then drains the
// client's remaining input briefly before the close. Without the drain,
// closing a socket with unread bytes can RST the connection and destroy
// the very error frame the client needs to see. The finish event is
// emitted only when the session-start event fired (started): admission
// failures emit neither, so start/finish counts always pair.
func (s *Server) fail(conn net.Conn, id int64, tenant string, started bool, err error) {
	s.errors.Inc()
	s.logf("serve: session %d (%s): %v", id, tenant, err)
	if started {
		s.cfg.Obs.Emit(obs.Event{Kind: obs.KindSessionFinish, Bank: -1, Label: tenant, Value: id, Detail: err.Error()})
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if werr := writeFrame(conn, FrameError, []byte(err.Error())); werr != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	io.CopyN(io.Discard, conn, 64<<20)
}
