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
// leaves Dwells empty, and io.EOF marks a clean end of trace.
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

// replayBlocks routes src's blocks into per-bank channels, each drained by
// its own bank goroutine. It is the only ingest route: Run hands it a
// generator adapter (stream.go), RunBlocks a decoder. The router runs on
// the calling goroutine. Block buffers recycle through a shared free pool:
// the router decodes into a recycled buffer, the bank goroutine returns it
// after replay, so steady-state allocation is O(banks × blockDepth)
// buffers regardless of trace length.
//
// Error discipline: a bank goroutine stores its first error in its bankOut
// and keeps draining (so the router is never stranded mid-send), and a
// router error — decode failure, out-of-range access, injected partition
// fault — fails the run even if every started bank replayed cleanly.
func replayBlocks(cfg Config, src BlockSource, states []*bankState) ([]bankOut, error) {
	nbanks := len(states)
	outs := make([]bankOut, nbanks)

	// Shared buffer pool. The budget covers every block that can be in
	// flight at once (queued per bank plus one being replayed and one being
	// decoded); buffers allocate lazily, so a trace touching few banks
	// circulates few buffers.
	budget := nbanks*(blockDepth+1) + 1
	free := make(chan trace.ColBlock, budget)
	made := 0
	buffer := func() trace.ColBlock {
		select {
		case b := <-free:
			return b
		default:
		}
		if made < budget {
			made++
			return trace.ColBlock{} // the source sizes the columns to the block
		}
		return <-free
	}

	// Every bank gets a drainer, so the router cannot deadlock on a send.
	chans := make([]chan trace.ColBlock, nbanks)
	var wg sync.WaitGroup
	for bi := range states {
		chans[bi] = make(chan trace.ColBlock, blockDepth)
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			s, out := states[bi], &outs[bi]
			for blk := range chans[bi] {
				if out.err == nil {
					out.err = replayBlock(cfg, nbanks, s, bi, out, blk)
				}
				// Recycle even after an error: the router may be blocked
				// waiting for a free buffer. The free channel holds the
				// whole budget, so this send never blocks.
				free <- trace.ColBlock{Rows: blk.Rows[:0], Gaps: blk.Gaps[:0], Dwells: blk.Dwells[:0]}
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
			blk, err := src.NextCols(buffer())
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
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
			chans[blk.Bank] <- blk
		}
	}()
	wg.Wait()
	if err != nil {
		return nil, err
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
