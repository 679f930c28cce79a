package main

import (
	"bufio"
	"os"
	"runtime"
	"time"

	"graphene/internal/memctrl"
	"graphene/internal/trace"
)

// replayFile is the rhtrace -replay path: open the trace file, read its
// header, and replay the block stream through memctrl.RunBlocks. wrap, when
// non-nil, interposes on the reader (the traced run times decode through
// it).
func replayFile(j *job, cfg memctrl.Config, wrap func(*trace.BlockReader) memctrl.BlockSource) (memctrl.Result, error) {
	f, err := os.Open(j.path)
	if err != nil {
		return memctrl.Result{}, err
	}
	defer f.Close()
	br, err := trace.NewBlockReader(bufio.NewReaderSize(f, 256<<10))
	if err != nil {
		return memctrl.Result{}, err
	}
	var src memctrl.BlockSource = br
	if wrap != nil {
		src = wrap(br)
	}
	return memctrl.RunBlocks(cfg, src)
}

// measureReplay replays the jobs' trace files one at a time for d, after
// one untimed warm-up replay of each. Every replay is checked against its
// job's reference. Each replay starts from a collected heap, as a fresh
// rhtrace -replay process would, so the peak RSS and the GC work inside a
// replay do not depend on how much garbage earlier replays left; the
// collection itself is not timed, and the returned wall is the sum of the
// replays' own times.
func measureReplay(jobs []*job, d time.Duration) (tally, time.Duration) {
	var t tally
	for _, j := range jobs {
		res, err := replayFile(j, j.pipe.protected(), nil)
		t.verify(j.check(res, err))
	}
	var wall time.Duration
	for i := 0; wall < d; i++ {
		j := jobs[i%len(jobs)]
		runtime.GC()
		t0 := time.Now()
		res, err := replayFile(j, j.pipe.protected(), nil)
		lat := time.Since(t0)
		wall += lat
		t.record(j.acts, lat, j.check(res, err))
	}
	return t, wall
}
