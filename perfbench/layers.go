package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"graphene/internal/dram"
	"graphene/internal/hammer"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the traced run began; Parent is the ID of the span that caused it.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	ACTs   int64            `json:"acts,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its ID.
func (l *spanLog) open(name string, parent int64, start time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: int64(len(l.spans) + 1), Parent: parent, Name: name, Start: int64(start.Sub(l.t0))})
	return int64(len(l.spans))
}

// close ends span id.
func (l *spanLog) close(id int64, end time.Time, acts int64, attrs map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End, s.ACTs, s.Attrs = int64(end.Sub(l.t0)), acts, attrs
}

func (l *spanLog) add(name string, parent int64, start, end time.Time, acts int64, attrs map[string]int64) {
	l.close(l.open(name, parent, start), end, acts, attrs)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedSource times the trace layer from the router's side. RunBlocks
// routes a source columnarly when it has NextCols, which the embedded
// reader provides; the override times each call (decode) and the gap from
// one call's return to the next call (the router blocked on full bank
// queues).
type tracedSource struct {
	*trace.BlockReader
	spans        *spanLog
	parent       int64
	decode, wait time.Duration
	last         time.Time
	stream       streamHash // what the decoder handed the router
}

func (s *tracedSource) NextCols(buf trace.ColBlock) (trace.ColBlock, error) {
	start := time.Now()
	if !s.last.IsZero() {
		s.wait += start.Sub(s.last)
	}
	blk, err := s.BlockReader.NextCols(buf)
	s.last = time.Now()
	s.decode += s.last.Sub(start)
	s.spans.add("trace.decode", s.parent, start, s.last, int64(len(blk.Rows)), nil)
	for i, r := range blk.Rows {
		var dwell dram.Time
		if len(blk.Dwells) != 0 {
			dwell = blk.Dwells[i]
		}
		s.stream.add(blk.Bank, r, blk.Gaps[i], dwell)
	}
	return blk, err
}

// callTimes is time spent in, and calls made to, a tracker's entry points.
type callTimes struct {
	batch, scalar, tick                time.Duration
	batchCalls, batchACTs, scalarCalls int64
}

func (c *callTimes) add(o callTimes) {
	c.batch += o.batch
	c.scalar += o.scalar
	c.tick += o.tick
	c.batchCalls += o.batchCalls
	c.batchACTs += o.batchACTs
	c.scalarCalls += o.scalarCalls
}

// timedMitigator times one bank's tracker calls. The embedded Mitigator
// forwards Name, Reset and Cost; the three activate/tick entry points are
// timed. Each bank's instance is used only by that bank's replay
// goroutine and read after RunBlocks returns.
type timedMitigator struct {
	mitigation.Mitigator
	callTimes
}

func (m *timedMitigator) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	start := time.Now()
	dst, n := m.Mitigator.AppendOnActivateBatch(dst, rows, now, dwell)
	m.batch += time.Since(start)
	m.batchCalls++
	m.batchACTs += int64(n)
	return dst, n
}

func (m *timedMitigator) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	start := time.Now()
	dst = m.Mitigator.AppendOnActivate(dst, row, now)
	m.scalar += time.Since(start)
	m.scalarCalls++
	return dst
}

func (m *timedMitigator) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	start := time.Now()
	dst = m.Mitigator.AppendTick(dst, now)
	m.tick += time.Since(start)
	return dst
}

type extraAccesses interface{ ExtraDRAMAccesses() int64 }

// timedExtra is timedMitigator for a scheme with extra DRAM traffic.
// memctrl replays such a scheme on its scalar path, so the wrapper has the
// method exactly when the wrapped scheme does.
type timedExtra struct {
	*timedMitigator
	extra extraAccesses
}

func (m timedExtra) ExtraDRAMAccesses() int64 { return m.extra.ExtraDRAMAccesses() }

// timedFactory wraps every engine inner builds and appends it to *made.
// memctrl calls the factory serially before any replay starts.
func timedFactory(inner mitigation.Factory, made *[]*timedMitigator) mitigation.Factory {
	return func() (mitigation.Mitigator, error) {
		m, err := inner()
		if err != nil {
			return nil, err
		}
		t := &timedMitigator{Mitigator: m}
		*made = append(*made, t)
		if x, ok := m.(extraAccesses); ok {
			return timedExtra{t, x}, nil
		}
		return t, nil
	}
}

// layerTotals accumulates the traced run's per-layer measurements.
type layerTotals struct {
	acts, bytes, nrr       int64 // of verified traced replays
	decode, wait           time.Duration
	calls                  callTimes
	timingOnly, oracle     time.Duration
	timingACTs, oracleACTs int64
	untracedMS, tracedMS   []float64
}

// tracedReplay replays j's file with the trace reader and every bank's
// tracker wrapped, checks the Result against the reference like any other
// replay, and adds the layer times of a verified replay to lt.
func (lt *layerTotals) tracedReplay(j *job, spans *spanLog) error {
	var (
		mits []*timedMitigator
		src  *tracedSource
	)
	cfg := j.pipe.protected()
	cfg.Factory = timedFactory(cfg.Factory, &mits)
	start := time.Now()
	id := spans.open("replay", 0, start)
	res, err := replayFile(j, cfg, func(br *trace.BlockReader) memctrl.BlockSource {
		src = &tracedSource{BlockReader: br, spans: spans, parent: id}
		return src
	})
	end := time.Now()
	if err == nil && !slices.Equal(src.stream, j.stream) {
		err = fmt.Errorf("decoded stream differs from the generated one")
	}
	if err := j.check(res, err); err != nil {
		spans.close(id, end, 0, nil)
		return err
	}
	var c callTimes
	for _, m := range mits {
		c.add(m.callTimes)
	}
	spans.close(id, end, res.ACTs, map[string]int64{
		"decode_ns": int64(src.decode), "route_wait_ns": int64(src.wait),
		"batch_ns": int64(c.batch), "scalar_ns": int64(c.scalar), "tick_ns": int64(c.tick),
		"nrr": res.NRRCommands,
	})
	lt.tracedMS = append(lt.tracedMS, ms(end.Sub(start)))
	lt.acts += res.ACTs
	lt.bytes += int64(len(j.data))
	lt.nrr += res.NRRCommands
	lt.decode += src.decode
	lt.wait += src.wait
	lt.calls.add(c)
	return nil
}

// bankStream is one bank's decoded activation stream, with start times
// from the bank occupancy recurrence, for timing the oracle on its own.
type bankStream struct {
	rows       []int
	now, dwell []dram.Time
}

func decodeStreams(j *job) ([]bankStream, error) {
	br, err := trace.NewBlockReader(bytes.NewReader(j.data))
	if err != nil {
		return nil, err
	}
	timing := j.pipe.timing()
	streams := make([]bankStream, j.pipe.banks)
	busy := make([]dram.Time, j.pipe.banks)
	var blk trace.ColBlock
	for {
		if blk, err = br.NextCols(blk); err != nil {
			if errors.Is(err, io.EOF) {
				return streams, nil
			}
			return nil, err
		}
		if blk.Bank < 0 || blk.Bank >= len(streams) {
			return nil, fmt.Errorf("trace block for bank %d of %d", blk.Bank, len(streams))
		}
		s := &streams[blk.Bank]
		for i, r := range blk.Rows {
			var dwell dram.Time
			if len(blk.Dwells) != 0 {
				dwell = blk.Dwells[i]
			}
			at := busy[blk.Bank] + blk.Gaps[i]
			s.rows = append(s.rows, int(r))
			s.now = append(s.now, at)
			s.dwell = append(s.dwell, dwell)
			busy[blk.Bank] = at + timing.ActCycle(dwell)
		}
	}
}

// oracleBench times hammer.Oracle.AppendActivateOpen over a job's per-bank
// streams, one fresh oracle state per bank and pass.
type oracleBench struct {
	streams []bankStream
	oracles []*hammer.Oracle
}

func newOracleBench(j *job) (*oracleBench, error) {
	streams, err := decodeStreams(j)
	if err != nil {
		return nil, err
	}
	b := &oracleBench{streams: streams}
	for range streams {
		o, err := hammer.NewOracle(j.pipe.rows, trh, 1, nil)
		if err != nil {
			return nil, err
		}
		o.SetNRAS(j.pipe.timing().NRAS())
		b.oracles = append(b.oracles, o)
	}
	return b, nil
}

// run returns the time spent in the oracle and the ACTs it observed.
func (b *oracleBench) run() (time.Duration, int64) {
	var (
		flips []hammer.Flip
		total time.Duration
		acts  int64
	)
	for bi, s := range b.streams {
		o := b.oracles[bi]
		o.Reset()
		start := time.Now()
		for i, r := range s.rows {
			flips = o.AppendActivateOpen(flips[:0], r, s.now[i], s.dwell[i])
		}
		total += time.Since(start)
		acts += int64(len(s.rows))
	}
	return total, acts
}

// tracedRun is the per-layer run. For the first half of d it cycles
// through the jobs, replaying each trace file untraced and then traced so
// the two walls compare directly, then replaying it with no tracker and no
// oracle (the decode + route + horizon-walk floor) and timing the oracle
// alone on the first job's decoded stream. For the second half it runs the
// serve loop over the same jobs with session spans. Every replay and
// session is checked as in the untraced run, so the traced replays must
// reproduce the reference digests.
func tracedRun(jobs []*job, d time.Duration, first *daemon, scratch string, spans *spanLog) (map[string]metric, tally, error) {
	var (
		t  tally
		lt layerTotals
	)
	ob, err := newOracleBench(jobs[0])
	if err != nil {
		return nil, t, err
	}
	start := time.Now()
	for i := 0; i < len(jobs) || time.Since(start) < d/2; i++ {
		j := jobs[i%len(jobs)]

		t0 := time.Now()
		res, err := replayFile(j, j.pipe.protected(), nil)
		lat := time.Since(t0)
		t.record(j.acts, lat, j.check(res, err))
		lt.untracedMS = append(lt.untracedMS, ms(lat))

		t.verify(lt.tracedReplay(j, spans))

		t0 = time.Now()
		res, err = replayFile(j, j.pipe.timingOnly(), nil)
		t1 := time.Now()
		if err == nil && res.ACTs != j.acts {
			err = fmt.Errorf("timing-only replay: %d of %d ACTs", res.ACTs, j.acts)
		}
		if t.verify(err) {
			lt.timingOnly += t1.Sub(t0)
			lt.timingACTs += res.ACTs
			spans.add("memctrl.timing_only", 0, t0, t1, res.ACTs, nil)
		}

		t0 = time.Now()
		busy, acts := ob.run()
		lt.oracle += busy
		lt.oracleACTs += acts
		spans.add("hammer.oracle", 0, t0, time.Now(), acts, nil)
	}

	st, err := serveLoop(jobs, d/2, first, scratch, spans)
	if err != nil {
		return nil, t, err
	}
	t.add(st.tally)

	acts := float64(lt.acts)
	kacts := acts / 1000
	metrics := map[string]metric{
		"trace.decode_ns_per_act":        {div(float64(lt.decode), acts), "ns/ACT"},
		"trace.bytes_per_act":            {div(float64(lt.bytes), acts), "B/ACT"},
		"memctrl.route_wait_ns_per_act":  {div(float64(lt.wait), acts), "ns/ACT"},
		"memctrl.timing_only_ns_per_act": {div(float64(lt.timingOnly), float64(lt.timingACTs)), "ns/ACT"},
		"graphene.batch_ns_per_act":      {div(float64(lt.calls.batch), float64(lt.calls.batchACTs)), "ns/ACT"},
		"graphene.acts_per_batch_call":   {div(float64(lt.calls.batchACTs), float64(lt.calls.batchCalls)), "ACT/call"},
		"graphene.scalar_calls_per_kact": {div(float64(lt.calls.scalarCalls), kacts), "1/kACT"},
		"graphene.tick_ns_per_kact":      {div(float64(lt.calls.tick), kacts), "ns/kACT"},
		"graphene.nrr_per_kact":          {div(float64(lt.nrr), kacts), "1/kACT"},
		"hammer.ns_per_act":              {div(float64(lt.oracle), float64(lt.oracleACTs)), "ns/ACT"},
		"serve.wall_ms_p50.plain":        {quantile(st.wallMS[0], 0.5), "ms"},
		"serve.wall_ms_p50.resumable":    {quantile(st.wallMS[1], 0.5), "ms"},
		"serve.wait_ms_p50":              {quantile(st.waitMS, 0.5), "ms"},
		"serve.journal_b_per_act":        {div(float64(st.journalB), float64(st.journaledACTs)), "B/ACT"},
		"serve.retained_b_per_act":       {div(float64(st.retainedB), float64(st.journaledACTs)), "B/ACT"},
		"serve.partials_per_session":     {div(float64(st.partials), float64(st.resumable)), "count"},
		"bench.trace_overhead_pct":       {100 * (div(quantile(lt.tracedMS, 0.5), quantile(lt.untracedMS, 0.5)) - 1), "%"},
	}
	return metrics, t, nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
