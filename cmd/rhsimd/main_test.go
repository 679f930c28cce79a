package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"graphene/internal/serve"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// logBuffer is a concurrency-safe log sink: run() writes from the serve
// goroutines while the test reads the final output.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// runOneSession boots the daemon body with o, replays one 500-ACT session
// for tenant "lifecycle" over TCP, SIGTERMs the daemon, waits for the
// drain, and returns the daemon's log and the session's report.
func runOneSession(t *testing.T, o options) (string, serve.Report) {
	t.Helper()
	logw := &logBuffer{}
	ready := make(chan string, 1)
	stop := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(o, logw, ready, stop) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, workload.S1(0, 1024, 8, 500)); err != nil {
		t.Fatal(err)
	}
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Run(serve.Hello{Tenant: "lifecycle"}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.ACTs != 500 {
		t.Fatalf("replayed %d ACTs, want 500", rep.Result.ACTs)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	return logw.String(), rep
}

// TestDaemonLifecycle boots the full daemon body, serves one real session
// over TCP, SIGTERMs it, and checks the drain-then-report artifacts: the
// journaled session, the metrics snapshot, and the summary line.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := options{
		addr:        "127.0.0.1:0",
		maxTenants:  4,
		maxBanks:    16,
		idleTimeout: time.Minute,
		drain:       10 * time.Second,
		checkpoint:  filepath.Join(dir, "sessions.ckpt"),
		metrics:     filepath.Join(dir, "metrics.json"),
	}
	out, rep := runOneSession(t, o)
	for _, want := range []string{"listening on", "draining", "served 1 session(s), 0 error(s)", "1 report(s) journaled"} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon log misses %q:\n%s", want, out)
		}
	}
	ck, err := os.ReadFile(o.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ck), fmt.Sprintf("lifecycle/%d", rep.Session)) {
		t.Errorf("checkpoint journal misses the session key:\n%s", ck)
	}
	metrics, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "serve_sessions_total") {
		t.Errorf("metrics snapshot misses serve counters:\n%s", metrics)
	}
}

// TestDaemonSummaryWithoutObs runs the daemon with no -metrics, -events or
// -pprof, so it has no Recorder. The drain summary must still count the
// session, its ACTs and the bytes it read.
func TestDaemonSummaryWithoutObs(t *testing.T) {
	out, _ := runOneSession(t, options{
		addr:        "127.0.0.1:0",
		maxTenants:  4,
		maxBanks:    16,
		idleTimeout: time.Minute,
		drain:       10 * time.Second,
	})
	if want := "served 1 session(s), 0 error(s), 500 ACTs, "; !strings.Contains(out, want) {
		t.Errorf("drain summary misses %q:\n%s", want, out)
	}
	if strings.Contains(out, " 0 bytes in") {
		t.Errorf("drain summary counts no bytes in:\n%s", out)
	}
}

// TestDaemonBindFailureIsSynchronous pins the fail-fast contract the
// -pprof satellite established: a daemon pointed at an occupied port must
// fail run() itself.
func TestDaemonBindFailureIsSynchronous(t *testing.T) {
	s, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the port without serving; rhsimd must refuse to bind it.
	o := options{
		addr:        s.Addr(),
		maxTenants:  1,
		idleTimeout: time.Minute,
		drain:       time.Second,
	}
	if err := run(o, &logBuffer{}, nil, make(chan os.Signal)); err == nil {
		t.Fatal("run bound an occupied port without error")
	}
}
