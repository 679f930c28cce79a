// Command rhsimd is the multi-tenant mitigation daemon: a long-lived TCP
// server accepting binary ACT streams from many concurrent clients
// (cmd/rhload, or anything speaking the DESIGN.md §12 frame protocol),
// replaying each tenant on its own per-(tenant, bank) pipelines, and
// answering with victim-refresh decisions plus per-tenant flip/overhead
// reports.
//
// Usage:
//
//	rhsimd                                  # listen on localhost:9741
//	rhsimd -addr :0 -pprof localhost:6060   # free port + live /metrics
//	rhsimd -checkpoint sessions.ckpt        # journal every session report
//
// SIGTERM (or SIGINT) drains: the listener closes immediately, in-flight
// sessions run to completion and deliver their reports (bounded by
// -drain-timeout), the checkpoint journal and metrics snapshot are
// flushed, and a final summary line goes to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphene/internal/obs"
	"graphene/internal/sched"
	"graphene/internal/serve"
)

// options carries one daemon configuration.
type options struct {
	addr        string
	maxTenants  int
	maxBanks    int
	shards      int
	shardQueue  int
	idleTimeout time.Duration
	drain       time.Duration
	checkpoint  string
	obs         obs.Flags
	replayObs   bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "localhost:9741", "TCP listen address (use :0 for a free port)")
	flag.IntVar(&o.maxTenants, "max-tenants", 64, "concurrent tenant sessions before the accept loop backpressures")
	flag.IntVar(&o.maxBanks, "max-banks", 1024, "per-tenant bank limit (a hostile trace header must not size real memory)")
	flag.IntVar(&o.shards, "shards", 0, "session worker shards; sessions pin to shards by tenant-name hash (0 = one per CPU)")
	flag.IntVar(&o.shardQueue, "shard-queue", 8, "pending sessions each shard queues before admission backpressures")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "per-frame read deadline; a silent client fails its session")
	flag.DurationVar(&o.drain, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight sessions before severing them")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "journal every finished session's report to this file (sched checkpoint format)")
	flag.StringVar(&o.obs.Metrics, "metrics", "", "write a JSON metrics snapshot to this file at exit (stderr or - for standard error)")
	flag.StringVar(&o.obs.Events, "events", "", "stream JSON-line session events to this file (stderr or - for standard error)")
	flag.StringVar(&o.obs.Pprof, "pprof", "", "serve /debug/pprof/ and live /metrics on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.replayObs, "replay-obs", false, "attach the recorder to every tenant replay pipeline (per-ACT instrumentation; costs throughput)")
	flag.Parse()

	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGTERM, syscall.SIGINT)
	if err := run(o, os.Stderr, nil, quit); err != nil {
		fmt.Fprintln(os.Stderr, "rhsimd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: logs to logw, announces the bound
// address on ready (when non-nil), serves until quit delivers, then
// drains and reports.
func run(o options, logw io.Writer, ready chan<- string, quit <-chan os.Signal) (err error) {
	rec, addr, stop, err := o.obs.Start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	if addr != "" {
		fmt.Fprintf(logw, "rhsimd: pprof: serving /debug/pprof/ and /metrics on http://%s\n", addr)
	}

	var ck *sched.Checkpoint
	if o.checkpoint != "" {
		ck, err = sched.OpenCheckpoint(o.checkpoint)
		if err != nil {
			return err
		}
	}
	defer ck.Close()

	s, err := serve.New(serve.Config{
		Addr:        o.addr,
		MaxTenants:  o.maxTenants,
		MaxBanks:    o.maxBanks,
		Shards:      o.shards,
		ShardQueue:  o.shardQueue,
		IdleTimeout: o.idleTimeout,
		Obs:         rec,
		ReplayObs:   o.replayObs,
		Checkpoint:  ck,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(logw, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "rhsimd: listening on %s (max %d tenants, %d shard(s))\n", s.Addr(), o.maxTenants, s.Shards())
	if ready != nil {
		ready <- s.Addr()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-quit:
		fmt.Fprintf(logw, "rhsimd: %v: draining (timeout %s)\n", sig, o.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	drainErr := s.Shutdown(ctx)
	<-serveErr

	// Drain-then-report: the session journal is already on disk (each
	// Record is an atomic append), the metrics snapshot flushes in stop,
	// and the summary line quotes the server's final totals, which it
	// keeps with or without a Recorder.
	tot := s.Totals()
	fmt.Fprintf(logw, "rhsimd: served %d session(s), %d error(s), %d ACTs, %d bytes in; %d report(s) journaled\n",
		tot.Sessions, tot.Errors, tot.ACTs, tot.BytesIn, ck.Len())
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}
