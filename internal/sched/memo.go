package sched

import "sync"

// MemoStats counts how a Memo was used: Misses is the number of
// computations started, Hits the number of lookups served from (or while
// waiting on) an existing entry.
type MemoStats struct {
	Hits   int64
	Misses int64
}

// Memo is a concurrency-safe, single-flight cache of successful results.
// The sweeps use it to share one unprotected baseline run per workload
// across every (scheme, threshold) cell: the first cell to ask computes
// it, concurrent askers block on the same computation, and later askers
// get the stored value. Errors are not cached: askers already waiting on
// a failing computation observe its error, and the next ask computes
// afresh, so a retried cell recovers a baseline that a transient fault
// (or an aborting sweep's cancellation) broke.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]*memoEntry[V]
	stats MemoStats
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the memoized value for k, computing it until one computation
// succeeds; concurrent callers share one computation.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	e, ok := m.m[k]
	if ok {
		m.stats.Hits++
	} else {
		m.stats.Misses++
		e = &memoEntry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()

	e.once.Do(func() { e.val, e.err = compute() })
	if e.err != nil {
		m.mu.Lock()
		if m.m[k] == e {
			delete(m.m, k)
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

// Stats returns the hit/miss counters accumulated so far.
func (m *Memo[K, V]) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
