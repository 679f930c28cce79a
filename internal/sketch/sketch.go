// Package sketch implements the alternative frequent-elements algorithms
// the paper surveys in §VI — Count-Min Sketch (Cormode & Muthukrishnan)
// and Space-Saving (Metwally et al.) — as drop-in Row Hammer trackers, so
// the paper's closing claim can be tested quantitatively: "These algorithms
// demonstrate different trade-offs between accuracy, coverage and required
// space. Graphene is based on Misra-Gries as it is area-efficient and
// hardware implementation-friendly."
//
// Both trackers here are sound (no false negatives):
//
//   - Count-Min never underestimates, so triggering at estimate ≥ T keeps
//     every true-T row covered; its price is collision-driven false
//     positives and a table several times larger than Misra-Gries for the
//     same error bound (width ≥ e·W/T per hash row, full-width counters —
//     no overflow-bit compression applies).
//   - Space-Saving tracks the top elements with the same
//     overestimate-only property as Misra-Gries (its estimates carry the
//     evicted minimum over), and needs the same Θ(W/T) entries; it differs
//     in hardware shape (min-tracking instead of a spillover equality
//     search).
package sketch

import (
	"fmt"
	"math"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// --- Count-Min Sketch ---

// CMSConfig selects a Count-Min tracker for one bank.
type CMSConfig struct {
	TRH      int64
	K        int // reset window divisor, as in Graphene (default 2)
	Depth    int // hash rows (default 3)
	Width    int // counters per row; 0 derives e·W/T (the ε = T/W bound)
	Rows     int // rows per bank; default 64K
	Distance int // victim refresh reach; default 1
	Timing   dram.Timing
}

func (c CMSConfig) withDefaults() CMSConfig {
	if c.K == 0 {
		c.K = 2
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	return c
}

// CMS is the per-bank Count-Min tracker. It implements
// mitigation.Mitigator.
type CMS struct {
	cfg    CMSConfig
	t      int64 // trigger threshold (TRH/(2(K+1)), as in Graphene)
	w      int64 // max ACTs per reset window
	width  int
	counts [][]int64 // depth × width
	seeds  []uint64

	window    dram.Time
	windowEnd dram.Time

	// lastTrigger suppresses re-triggering the same row until another T
	// estimated activations accrue (multiples-of-T semantics).
	lastTrigger map[int]int64

	refreshes int64
}

var _ mitigation.Mitigator = (*CMS)(nil)

// NewCMS builds a Count-Min tracker from cfg.
func NewCMS(cfg CMSConfig) (*CMS, error) {
	cfg = cfg.withDefaults()
	if cfg.TRH <= 0 {
		return nil, fmt.Errorf("sketch: TRH must be positive, got %d", cfg.TRH)
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("sketch: depth must be >= 1, got %d", cfg.Depth)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	t := cfg.TRH / int64(2*(cfg.K+1))
	if t < 1 {
		return nil, fmt.Errorf("sketch: TRH %d too small for K %d", cfg.TRH, cfg.K)
	}
	window := cfg.Timing.TREFW / dram.Time(cfg.K)
	w := cfg.Timing.MaxACTs(window)
	width := cfg.Width
	if width == 0 {
		// Standard CM bound: overestimate ≤ ε·W with prob 1−δ for
		// width = ⌈e/ε⌉. Choosing ε = T/W bounds the error by T, so a
		// trigger fires at most one T early — same refresh granularity as
		// Graphene with guaranteed coverage.
		width = int(math.Ceil(math.E * float64(w) / float64(t)))
	}
	if width < 1 {
		return nil, fmt.Errorf("sketch: derived width < 1")
	}
	c := &CMS{
		cfg:   cfg,
		t:     t,
		w:     w,
		width: width,
		seeds: make([]uint64, cfg.Depth),

		window:      window,
		windowEnd:   window,
		lastTrigger: make(map[int]int64),
	}
	c.counts = make([][]int64, cfg.Depth)
	for d := range c.counts {
		c.counts[d] = make([]int64, width)
		c.seeds[d] = 0x9E3779B97F4A7C15 * uint64(d+1)
	}
	return c, nil
}

// Name implements mitigation.Mitigator.
func (c *CMS) Name() string { return fmt.Sprintf("cms-%dx%d", c.cfg.Depth, c.width) }

// T returns the trigger threshold.
func (c *CMS) T() int64 { return c.t }

// Width returns the per-row counter count.
func (c *CMS) Width() int { return c.width }

// VictimRefreshes returns the NRR commands issued.
func (c *CMS) VictimRefreshes() int64 { return c.refreshes }

func (c *CMS) hash(d int, row int) int {
	x := uint64(row)*0xBF58476D1CE4E5B9 + c.seeds[d]
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int(x % uint64(c.width))
}

// Estimate returns the sketch's (over-)estimate for row.
func (c *CMS) Estimate(row int) int64 {
	est := int64(math.MaxInt64)
	for d := range c.counts {
		if v := c.counts[d][c.hash(d, row)]; v < est {
			est = v
		}
	}
	return est
}

// AppendOnActivate implements mitigation.Mitigator.
func (c *CMS) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	for now >= c.windowEnd {
		c.reset()
		c.windowEnd += c.window
	}
	for d := range c.counts {
		c.counts[d][c.hash(d, row)]++
	}
	est := c.Estimate(row)
	if est < c.t || est < c.lastTrigger[row]+c.t {
		return dst
	}
	c.lastTrigger[row] = est
	c.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: c.cfg.Distance})
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (c *CMS) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(c, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator.
func (c *CMS) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

func (c *CMS) reset() {
	for d := range c.counts {
		clear(c.counts[d])
	}
	clear(c.lastTrigger)
}

// Cost implements mitigation.Mitigator: depth×width SRAM counters wide
// enough to count to W (no overflow-bit trick applies — entries are not
// pinned). This is the §VI comparison: several times the bits of
// Graphene's CAM for the same tracking error.
func (c *CMS) Cost() mitigation.HardwareCost {
	per := mitigation.Bits(int(c.w) + 1)
	return mitigation.HardwareCost{
		Entries:  c.cfg.Depth * c.width,
		SRAMBits: c.cfg.Depth * c.width * per,
	}
}

// CMSFactory returns a mitigation.Factory building identical CMS trackers.
func CMSFactory(cfg CMSConfig) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return NewCMS(cfg) }
}
