package sched

import "sync"

// MemoStats counts how a Memo was used: Misses is the number of distinct
// keys computed, Hits the number of lookups served from (or while waiting
// on) an existing entry.
type MemoStats struct {
	Hits   int64
	Misses int64
}

// Memo is a concurrency-safe, single-flight result cache. The sweeps use
// it to share one unprotected baseline run per workload across every
// (scheme, threshold) cell: the first cell to ask computes it, concurrent
// askers block on the same computation, and later askers get the stored
// value. Real errors are cached too — a failing baseline fails every
// dependent cell identically instead of being retried — but context
// cancellation (context.Canceled / DeadlineExceeded) is not: a baseline
// that was merely interrupted by an aborting sweep is recomputed on the
// next ask, so a resumed or retried sweep never re-fails from a stale
// cancellation.
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

// Do returns the memoized value for k, computing it at most once across
// all callers.
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
	if isCancel(e.err) {
		// Drop the poisoned entry (concurrent askers already waiting on it
		// still observe the cancellation; the next Do computes afresh).
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
