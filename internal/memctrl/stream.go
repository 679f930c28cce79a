package memctrl

import (
	"io"
	"slices"

	"graphene/internal/dram"
	"graphene/internal/trace"
)

// streamChunk is the number of one bank's accesses a generator replay
// hands to that bank's replay goroutine at a time. Large enough to
// amortize channel synchronization across thousands of accesses, small
// enough that per-bank buffering stays in cache. Each block emits one
// replay_chunk event, so the golden event streams pin this length.
const streamChunk = 2048

// genSource adapts a trace.Generator to BlockSource, so generator replays
// enter the same block router as decoded binary traces. It walks the
// generator once, checks each access in stream order — the same error
// text and validate_fail event as runBuffered — and cuts each bank's
// accesses into column blocks of streamChunk ACTs. At the end of the
// stream it hands over every bank's partial block, in bank order.
type genSource struct {
	gen   trace.Generator
	cfg   Config
	banks int
	rows  int

	fill  []*trace.ColBlock // per bank: the block being filled, nil until the bank's first access
	ended bool              // gen is drained
	tail  int               // next bank whose partial block is due after the end
}

func newGenSource(cfg Config, gen trace.Generator) *genSource {
	banks := cfg.Geometry.Banks()
	return &genSource{
		gen: gen, cfg: cfg, banks: banks, rows: cfg.Geometry.RowsPerBank,
		fill: make([]*trace.ColBlock, banks),
	}
}

// Name implements BlockSource.
func (g *genSource) Name() string { return g.gen.Name() }

// NextCols implements BlockSource. buf becomes the next fill of the bank
// whose block it returns, so the adapter holds one buffer per bank on top
// of the router's free list. Fills come from blockPool and go back to it
// once the last partial block is out.
func (g *genSource) NextCols(buf trace.ColBlock) (trace.ColBlock, error) {
	for !g.ended {
		a, ok := g.gen.Next()
		if !ok {
			g.ended = true
			break
		}
		// Range-check inline: validateAccess copies Config, so it only
		// builds the error.
		if a.Bank < 0 || a.Bank >= g.banks || a.Row < 0 || a.Row >= g.rows {
			return trace.ColBlock{}, validateAccess(g.cfg, g.banks, a)
		}
		f := g.fill[a.Bank]
		if f == nil {
			f = getBlock()
			f.Rows = slices.Grow(f.Rows, streamChunk)
			f.Gaps = slices.Grow(f.Gaps, streamChunk)
			g.fill[a.Bank] = f
		}
		f.Rows = append(f.Rows, int32(a.Row))
		f.Gaps = append(f.Gaps, a.Gap)
		if len(f.Dwells) != 0 {
			f.Dwells = append(f.Dwells, a.Dwell)
		} else if a.Dwell != 0 {
			// The block's first non-zero dwell starts its dwell column,
			// zero-filled back to the block's head. A block without one
			// keeps an empty column and replays on the fixed-tRC path.
			if cap(f.Dwells) == 0 {
				f.Dwells = make([]dram.Time, 0, streamChunk)
			}
			f.Dwells = append(append(f.Dwells, make([]dram.Time, len(f.Rows)-1)...), a.Dwell)
		}
		if len(f.Rows) == streamChunk {
			return g.cut(a.Bank, buf), nil
		}
	}
	for g.tail < g.banks {
		b := g.tail
		g.tail++
		if f := g.fill[b]; f != nil && len(f.Rows) > 0 {
			return g.cut(b, buf), nil
		}
	}
	// Every block is out, so no fill is read again.
	for b, f := range g.fill {
		if f != nil {
			putBlock(f)
			g.fill[b] = nil
		}
	}
	return trace.ColBlock{}, io.EOF
}

// cut returns bank's filled block and makes buf, emptied, its next fill.
func (g *genSource) cut(bank int, buf trace.ColBlock) trace.ColBlock {
	f := g.fill[bank]
	blk := *f
	blk.Bank = bank
	*f = trace.ColBlock{Rows: buf.Rows[:0], Gaps: buf.Gaps[:0], Dwells: buf.Dwells[:0]}
	return blk
}
