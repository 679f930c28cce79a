package sched

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"graphene/internal/obs"
)

// ErrShardsClosed reports a Submit against a pool whose Close has begun.
// The job was not enqueued and will never run; the caller owns whatever
// resources it was carrying (the serve path answers the held connection
// with an error frame instead of hanging it).
var ErrShardsClosed = errors.New("sched: shards: pool is closed")

// ShardOf maps a pinning key onto one of n shards with FNV-1a. The hash is
// stable across processes and runs, so the same key always lands on the
// same shard for a fixed n — the property that serializes one tenant's
// sessions (and lands a resumed session on its original pipeline) without
// any shared lookup state.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Shards is a long-lived pool of single-goroutine workers with bounded
// FIFO queues — the session execution engine behind serve.Server. Where
// Run executes a fixed batch and drains, Shards accepts work for the life
// of the pool: Submit pins a job to the shard its key hashes to and blocks
// while that shard's queue is full (backpressure, never unbounded
// goroutines), and each shard runs its queue strictly in submission order,
// one job at a time.
//
// Close is the SIGTERM half of the contract: no further Submit succeeds,
// every job already enqueued still runs — per shard, exactly in the order
// it was submitted — and Close returns only after the last worker exits.
// Drain order is therefore deterministic per shard; shards drain
// concurrently with respect to each other, exactly as they run.
type Shards struct {
	queues []chan func()
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	queued []*obs.Gauge
	busy   []*obs.Gauge
	jobs   []*obs.Counter
}

// NewShards builds and starts a pool of n workers (n <= 0 means one per
// GOMAXPROCS) with per-shard queues of the given depth (depth <= 0 means
// 8). When rec is non-nil every shard feeds three series: the
// "shard_<i>_queued" gauge (jobs accepted but not yet started), the
// "shard_<i>_busy" gauge (0 or 1: a job is executing), and the
// "shard_<i>_jobs_total" counter.
func NewShards(n, depth int, rec *obs.Recorder) *Shards {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 8
	}
	p := &Shards{
		queues: make([]chan func(), n),
		closed: make(chan struct{}),
		queued: make([]*obs.Gauge, n),
		busy:   make([]*obs.Gauge, n),
		jobs:   make([]*obs.Counter, n),
	}
	for i := range p.queues {
		p.queues[i] = make(chan func(), depth)
		p.queued[i] = rec.Gauge(fmt.Sprintf("shard_%d_queued", i))
		p.busy[i] = rec.Gauge(fmt.Sprintf("shard_%d_busy", i))
		p.jobs[i] = rec.Counter(fmt.Sprintf("shard_%d_jobs_total", i))
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// N returns the shard count.
func (p *Shards) N() int { return len(p.queues) }

// Submit enqueues fn on the shard key hashes to, blocking while that
// shard's queue is full. Once Submit returns nil the job is guaranteed to
// run — even if Close begins immediately after — in submission order
// relative to every other job on its shard. ErrShardsClosed means the job
// was rejected and will never run.
func (p *Shards) Submit(key string, fn func()) error {
	si := ShardOf(key, len(p.queues))
	select {
	case <-p.closed:
		return ErrShardsClosed
	default:
	}
	select {
	case p.queues[si] <- fn:
		p.queued[si].Add(1)
		p.jobs[si].Inc()
		return nil
	case <-p.closed:
		return ErrShardsClosed
	}
}

// worker runs shard i: pull, run, repeat; after Close, drain the queue in
// FIFO order and exit.
func (p *Shards) worker(i int) {
	defer p.wg.Done()
	q := p.queues[i]
	for {
		select {
		case j := <-q:
			p.exec(i, j)
		case <-p.closed:
			// Drain: everything that made it into the queue still runs, in
			// the order it arrived. A Submit racing Close either committed
			// its send (and is drained here) or takes ErrShardsClosed.
			for {
				select {
				case j := <-q:
					p.exec(i, j)
				default:
					return
				}
			}
		}
	}
}

// exec runs one job with the shard's gauges around it.
func (p *Shards) exec(i int, fn func()) {
	p.queued[i].Add(-1)
	p.busy[i].Add(1)
	fn()
	p.busy[i].Add(-1)
}

// Close stops the pool: Submits begun after Close fail with
// ErrShardsClosed, every enqueued job runs to completion in per-shard
// submission order, and Close blocks until all workers have exited. Safe
// to call more than once and from multiple goroutines.
func (p *Shards) Close() {
	p.once.Do(func() { close(p.closed) })
	p.wg.Wait()
}
