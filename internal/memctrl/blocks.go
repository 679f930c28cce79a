package memctrl

import (
	"fmt"
	"io"
	"sync"

	"graphene/internal/dram"
	"graphene/internal/faultinject"
	"graphene/internal/obs"
	"graphene/internal/trace"
)

// blockDepth is how many decoded blocks may queue per bank before the
// router blocks (backpressure). Blocks arrive pre-partitioned and carry up
// to a segment's worth of one bank's accesses, so a shallow queue is
// enough to keep banks busy while bounding peak memory.
const blockDepth = 2

// BlockSource streams a trace as columnar per-bank blocks — the shape
// trace.BlockReader.NextCols produces from the binary format. NextCols
// must follow that reader's contract: every row/gap pair of a returned
// block belongs to ColBlock.Bank in stream order, buf's columns are reused
// for the block's backing storage, a block without an open-row dwell
// leaves Dwells empty, and io.EOF marks a clean end of trace. The router
// pools buf again after the io.EOF call, so the source must not keep it.
type BlockSource interface {
	Name() string
	NextCols(buf trace.ColBlock) (trace.ColBlock, error)
}

// RunBlocks replays a pre-partitioned block stream to completion under
// cfg. It is Run for the binary trace format: the router hands each
// decoded block straight to its bank's replay goroutine, and decoded
// row/gap columns feed the batched replay core directly, with no
// per-access structs materialized anywhere between the codec and the
// mitigator (batch.go). Per-bank access order is the block stream's order,
// so the Result is byte-identical to Run over the same trace (the golden
// differential suite pins this for every recorded scheme×workload cell).
func RunBlocks(cfg Config, src BlockSource) (Result, error) {
	return run(cfg, src.Name(), func(cfg Config, states []*bankState) ([]bankOut, error) {
		return replayBlocks(cfg, src, states)
	})
}

// blockPool holds block buffers (*trace.ColBlock) between replays, with
// empty columns of kept capacity, so a process that replays trace after
// trace — a sweep's cells, a daemon's sessions — decodes into the columns
// earlier replays grew.
var blockPool sync.Pool

// getBlock returns a pooled block buffer, or an empty one that its first
// fill sizes.
func getBlock() *trace.ColBlock {
	if b, ok := blockPool.Get().(*trace.ColBlock); ok {
		return b
	}
	return new(trace.ColBlock)
}

// putBlock empties b's columns and pools it. The caller guarantees that
// nothing reads b's columns again.
func putBlock(b *trace.ColBlock) {
	*b = trace.ColBlock{Rows: b.Rows[:0], Gaps: b.Gaps[:0], Dwells: b.Dwells[:0]}
	blockPool.Put(b)
}

// replayBlocks routes src's blocks into per-bank channels, each drained by
// its own bank goroutine. It is the only ingest route: Run hands it a
// generator adapter (stream.go), RunBlocks a decoder. The router runs on
// the calling goroutine. Block buffers circulate through a free list: the
// router decodes into a free buffer, the bank goroutine returns it after
// replay, so a replay holds O(banks × blockDepth) buffers regardless of
// trace length. They come from blockPool and go back to it when the
// replay ends, so a process allocates them once, not once per replay.
//
// Error discipline: a bank goroutine stores its first error in its bankOut
// and keeps draining (so the router is never stranded mid-send), and a
// router error — decode failure, out-of-range access, injected partition
// fault — fails the run even if every started bank replayed cleanly. A
// router error drops the buffers rather than pooling them.
func replayBlocks(cfg Config, src BlockSource, states []*bankState) ([]bankOut, error) {
	nbanks := len(states)
	outs := make([]bankOut, nbanks)

	// The free list holds every block that can be in flight at once
	// (queued per bank plus one being replayed and one being decoded). It
	// is a FIFO filled up front, so the router uses every buffer before it
	// reuses one: how many buffers grow columns depends on the trace, not
	// on how far the router runs ahead of the banks. A buffer grows its
	// columns at its first decode, so a short trace leaves most of them
	// empty.
	budget := nbanks*(blockDepth+1) + 1
	free := make(chan *trace.ColBlock, budget)
	for range budget {
		free <- getBlock()
	}

	// Every bank gets a drainer, so the router cannot deadlock on a send.
	chans := make([]chan *trace.ColBlock, nbanks)
	var wg sync.WaitGroup
	for bi := range states {
		chans[bi] = make(chan *trace.ColBlock, blockDepth)
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			s, out := states[bi], &outs[bi]
			for b := range chans[bi] {
				if out.err == nil {
					out.err = replayBlock(cfg, nbanks, s, bi, out, *b)
				}
				// Recycle even after an error: the router may be blocked
				// waiting for a free buffer. The free channel holds the
				// whole budget, so this send never blocks.
				free <- b
			}
		}(bi)
	}

	err := func() error {
		// Closing on every exit, a panicking source included, lets the
		// bank goroutines drain and return.
		defer func() {
			for _, c := range chans {
				close(c)
			}
		}()
		for {
			b := <-free
			blk, err := src.NextCols(*b)
			if err == io.EOF {
				free <- b // the source left it untouched
				return nil
			}
			if err != nil {
				return err
			}
			*b = blk
			if blk.Bank < 0 || blk.Bank >= nbanks {
				// Route the whole block through the shared validator so the
				// failure emits the same validate_fail event an out-of-range
				// access does on the buffered path.
				row := 0
				if len(blk.Rows) > 0 {
					row = int(blk.Rows[0])
				}
				return validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: row})
			}
			if err := cfg.Fault.Hit(faultinject.SitePartition); err != nil {
				return err
			}
			chans[blk.Bank] <- b
		}
	}()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// The bank goroutines have returned, so no block is read again, and
	// every buffer is back on the free list — the one the router passed to
	// the NextCols call that returned io.EOF included.
	close(free)
	for b := range free {
		putBlock(b)
	}
	return outs, nil
}

// replayBlock validates and replays one block on its bank. Validation
// rides with the bank goroutine — the same checks and validate_fail events
// as the buffered path — so the router stays on its decode hot path. A
// panic anywhere in the replay (a buggy scheme, or an injected fault) is
// recovered into the bank's error instead of crashing the process: the
// goroutine keeps draining and recycling blocks, so the router never
// deadlocks behind a dead consumer.
func replayBlock(cfg Config, nbanks int, s *bankState, bi int, out *bankOut, blk trace.ColBlock) (err error) {
	// Range-check inline: validateAccess copies Config, so it only builds
	// the error.
	nrows := s.bank.Rows()
	for _, r := range blk.Rows {
		if r < 0 || int(r) >= nrows {
			return validateAccess(cfg, nbanks, trace.Access{Bank: blk.Bank, Row: int(r)})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("memctrl: bank %d: replay panic: %v", bi, r)
		}
	}()
	if err := cfg.Fault.Hit(faultinject.SiteReplay); err != nil {
		return fmt.Errorf("memctrl: bank %d: %w", bi, err)
	}
	// A block without the dwell column carries a length-zero Dwells slice;
	// nil here routes the run down the fixed-tRC fast path.
	var dwells []dram.Time
	if len(blk.Dwells) != 0 {
		dwells = blk.Dwells
	}
	if err := s.replayRun(blk.Rows, blk.Gaps, dwells, bi, out); err != nil {
		return err
	}
	if s.obs != nil {
		// One progress event per block: coarse enough to stay off the
		// per-ACT path, fine enough that a stuck sweep is visible mid-run.
		s.obs.rec.Emit(obs.Event{
			Kind: obs.KindReplayChunk, Scheme: s.obs.scheme,
			Bank: bi, Time: int64(s.now), Value: out.acts,
		})
	}
	return nil
}
