package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/sched"
	"graphene/internal/serve"
)

// The two closed-loop clients. Their tenant names hash to different
// session shards, so their sessions replay side by side.
var clients = []struct {
	class, tenant string
	reportEvery   int // Hello.ReportEvery: 1 journals every segment
}{
	{"plain", "plain", 0},
	{"resumable", "resume", 1},
}

const shards = 2

// epochACTs bounds how many ACTs the resumable client journals into one
// daemon. The checkpoint keeps every record in memory, so a daemon that
// lived for the whole run would grow with run length; instead the loop
// restarts the daemon on a fresh journal after this many.
const epochACTs = 16 * sessionACTs

// daemon is one in-process rhsimd: a serve.Server on loopback with its
// checkpoint journal in a scratch directory.
type daemon struct {
	srv     *serve.Server
	ck      *sched.Checkpoint
	dir     string
	journal string
	served  chan error
}

func startDaemon(scratch string) (*daemon, error) {
	if sched.ShardOf(clients[0].tenant, shards) == sched.ShardOf(clients[1].tenant, shards) {
		return nil, fmt.Errorf("client tenants share a shard")
	}
	dir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, journal: filepath.Join(dir, "journal.jsonl"), served: make(chan error, 1)}
	if d.ck, err = sched.OpenCheckpoint(d.journal); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if d.srv, err = serve.New(serve.Config{Addr: "127.0.0.1:0", Shards: shards, Checkpoint: d.ck}); err != nil {
		d.ck.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { d.served <- d.srv.Serve() }()
	return d, nil
}

// stop drains the daemon, waits for its accept loop to return, and removes
// its journal.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	if cerr := d.ck.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(d.dir)
	if err != nil {
		return fmt.Errorf("stopping daemon: %w", err)
	}
	return nil
}

func (d *daemon) journalBytes() int64 {
	st, err := os.Stat(d.journal)
	if err != nil {
		return 0
	}
	return st.Size()
}

// serveStats is the outcome of a serve loop. Beyond the tally it keeps the
// serve layer's own numbers for the traced run.
type serveStats struct {
	tally
	wallMS        [2][]float64 // Report.WallUS of verified sessions, per client class
	waitMS        []float64    // client latency minus WallUS
	partials      int64        // partial reports the resumable client received
	resumable     int64        // resumable sessions attempted
	journaledACTs int64        // ACTs of verified resumable sessions
	journalB      int64        // checkpoint file growth
	retainedB     int64        // post-GC heap growth (traced runs only)
}

// session is one finished client session.
type session struct {
	acts     int64
	start    time.Time
	lat      time.Duration
	wall     time.Duration // server replay wall, Report.WallUS
	partials int
	err      error
}

// serveLoop runs the two closed-loop clients against in-process daemons
// for d. Each client sends its next session only after the previous one's
// final Report arrived. Client i takes jobs i, i+2, ... in turn (both share
// the only job of a one-trace workload). The first daemon is first, when
// non-nil; every epochACTs journaled ACTs the loop moves to a fresh daemon.
// With spans non-nil (the traced run) it records a span per session and
// measures the heap each epoch retains, which costs a forced GC at both
// ends of an epoch.
func serveLoop(jobs []*job, d time.Duration, first *daemon, scratch string, spans *spanLog) (serveStats, error) {
	var st serveStats
	deadline := time.Now().Add(d)
	next := [2]int{0, 1}
	dmn := first
	for time.Now().Before(deadline) {
		if dmn == nil {
			var err error
			if dmn, err = startDaemon(scratch); err != nil {
				return st, err
			}
		}
		var heap0 uint64
		if spans != nil {
			heap0 = heapAfterGC()
		}
		journal0 := dmn.journalBytes()

		var (
			wg       sync.WaitGroup
			stop     atomic.Bool
			sessions [2][]session
		)
		for ci := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var journaled int64
				for !stop.Load() && time.Now().Before(deadline) {
					j := jobs[next[ci]%len(jobs)]
					next[ci] += 2
					s := runSession(dmn.srv.Addr(), ci, j)
					sessions[ci] = append(sessions[ci], s)
					if clients[ci].reportEvery > 0 {
						if journaled += j.acts; journaled >= epochACTs {
							break
						}
					}
				}
				stop.Store(true)
			}()
		}
		wg.Wait()

		for ci := range sessions {
			for _, s := range sessions[ci] {
				st.record(s.acts, s.lat, s.err)
				if spans != nil {
					spans.add("serve.session", 0, s.start, s.start.Add(s.lat), s.acts, map[string]int64{
						"client": int64(ci), "wall_us": s.wall.Microseconds(), "partials": int64(s.partials),
					})
				}
				if clients[ci].reportEvery > 0 {
					st.resumable++
					st.partials += int64(s.partials)
				}
				if s.err != nil {
					continue
				}
				if clients[ci].reportEvery > 0 {
					st.journaledACTs += s.acts
				}
				st.wallMS[ci] = append(st.wallMS[ci], ms(s.wall))
				st.waitMS = append(st.waitMS, ms(s.lat-s.wall))
			}
		}
		st.journalB += dmn.journalBytes() - journal0
		if spans != nil {
			st.retainedB += int64(heapAfterGC()) - int64(heap0)
		}
		err := dmn.stop()
		dmn = nil
		if err != nil {
			return st, err
		}
	}
	if dmn != nil {
		return st, dmn.stop()
	}
	return st, nil
}

// runSession is one rhload-style session: Dial, stream the trace, wait for
// the final Report, and check it against the job's reference.
func runSession(addr string, ci int, j *job) session {
	s := session{acts: j.acts, start: time.Now()}
	rep, err := func() (serve.Report, error) {
		c, err := serve.Dial(addr)
		if err != nil {
			return serve.Report{}, err
		}
		defer c.Close()
		// OnPartial runs on the client's reader goroutine, which Run waits
		// for before returning.
		c.OnPartial = func(serve.Report) { s.partials++ }
		return c.Run(j.pipe.hello(clients[ci].tenant, clients[ci].reportEvery), bytes.NewReader(j.data))
	}()
	s.lat = time.Since(s.start)
	s.wall = time.Duration(rep.WallUS) * time.Microsecond
	s.err = j.checkReport(rep, s.partials, clients[ci].reportEvery, err)
	return s
}

// checkReport is the verdict on one served session of j.
func (j *job) checkReport(rep serve.Report, partials, reportEvery int, err error) error {
	if err != nil {
		return err
	}
	if rep.Partial || rep.Segments != j.segments {
		return fmt.Errorf("final report: partial %v, %d of %d segments", rep.Partial, rep.Segments, j.segments)
	}
	if reportEvery > 0 && partials != j.segments/reportEvery {
		return fmt.Errorf("%d partial reports for %d segments", partials, j.segments)
	}
	if rep.Flips != len(rep.Result.Flips) {
		return fmt.Errorf("report counts %d flips, result holds %d", rep.Flips, len(rep.Result.Flips))
	}
	return j.check(rep.Result, nil)
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
