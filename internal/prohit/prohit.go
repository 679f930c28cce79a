// Package prohit implements PRoHIT (Son et al., DAC 2017) as described in
// the Graphene paper (§II-C, §V-A): a probabilistic scheme with two history
// tables — hot and cold — tracking victim-row candidates, where "the more
// frequently accessed rows are more likely to be chosen for victim row
// refreshes", and the refresh itself piggybacks on the periodic REF command.
//
// Reconstruction notes (the Graphene paper does not give PRoHIT's full
// pseudo-code): on every ACT, each (±1) victim is sampled with probability
// InsertP. A sampled victim absent from both tables enters the cold table
// (randomly evicting a cold entry when full); a sampled victim found in the
// cold table is promoted to the hot table (demoting the hot tail when
// full); a sampled victim found in the hot table moves one slot up. On
// each REF tick, with probability TickRefreshP, the current hot-table top
// is refreshed (see Tick). TickRefreshP is the knob the paper turns to
// equate PRoHIT's extra-refresh budget with PARA-0.00145 (§V-A).
//
// The vulnerability the paper exploits (Fig. 7(a)) reproduces directly:
// victims hammered more often dominate the hot table's top, so rows
// hammered "repeatedly but less frequently" (x±5) are starved of refreshes
// while still accumulating disturbance.
package prohit

import (
	"fmt"
	"math/rand"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a PRoHIT instance for one bank.
type Config struct {
	HotEntries  int     // hot-table slots (default 3)
	ColdEntries int     // cold-table slots (default 4; 3+4 = the 7 entries of Fig. 7(a))
	InsertP     float64 // per-victim sampling probability on ACT (default 1/16)
	// TickRefreshP is the probability of consuming the hot-table top at
	// each REF tick; it sets the extra-refresh budget (default 0.25,
	// roughly PARA-0.00145's budget — see §V-A and internal/security).
	TickRefreshP float64
	Rows         int // rows per bank; default 64K
	Seed         int64
}

func (c Config) withDefaults() Config {
	if c.HotEntries == 0 {
		c.HotEntries = 3
	}
	if c.ColdEntries == 0 {
		c.ColdEntries = 4
	}
	if c.InsertP == 0 {
		c.InsertP = 1.0 / 16
	}
	if c.TickRefreshP == 0 {
		c.TickRefreshP = 0.25
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	return c
}

// PRoHIT is the per-bank engine. It implements mitigation.Mitigator.
type PRoHIT struct {
	cfg Config
	rng *rand.Rand

	hot  []int // hot[0] is the top candidate for refresh
	cold []int

	// victimCell backs the single-row Rows slice of a tick-time refresh,
	// recycled every AppendTick (API v2 contract, DESIGN.md §9).
	victimCell [1]int

	refreshes int64
}

var _ mitigation.Mitigator = (*PRoHIT)(nil)

// New builds a PRoHIT engine from cfg.
func New(cfg Config) (*PRoHIT, error) {
	cfg = cfg.withDefaults()
	if cfg.HotEntries < 1 || cfg.ColdEntries < 1 {
		return nil, fmt.Errorf("prohit: tables need at least one entry each, got hot %d cold %d", cfg.HotEntries, cfg.ColdEntries)
	}
	if cfg.InsertP < 0 || cfg.InsertP > 1 {
		return nil, fmt.Errorf("prohit: insert probability %g out of [0, 1]", cfg.InsertP)
	}
	if cfg.TickRefreshP < 0 || cfg.TickRefreshP > 1 {
		return nil, fmt.Errorf("prohit: tick refresh probability %g out of [0, 1]", cfg.TickRefreshP)
	}
	return &PRoHIT{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements mitigation.Mitigator.
func (p *PRoHIT) Name() string {
	return fmt.Sprintf("prohit-%d", p.cfg.HotEntries+p.cfg.ColdEntries)
}

// VictimRefreshes returns the number of rows refreshed so far.
func (p *PRoHIT) VictimRefreshes() int64 { return p.refreshes }

// HotTable returns a copy of the hot table (top first), for tests.
func (p *PRoHIT) HotTable() []int { return append([]int(nil), p.hot...) }

func index(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// AppendOnActivate implements mitigation.Mitigator: probabilistic
// history-table maintenance; refreshes are only issued at REF ticks.
func (p *PRoHIT) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	for _, victim := range [2]int{row - 1, row + 1} {
		if victim < 0 || victim >= p.cfg.Rows {
			continue
		}
		if p.rng.Float64() >= p.cfg.InsertP {
			continue
		}
		if i := index(p.hot, victim); i >= 0 {
			if i > 0 { // move one slot up toward the top
				p.hot[i], p.hot[i-1] = p.hot[i-1], p.hot[i]
			}
			continue
		}
		if i := index(p.cold, victim); i >= 0 {
			// Promote to the hot tail; demote the previous hot tail into
			// the vacated cold slot when the hot table is full.
			p.cold = append(p.cold[:i], p.cold[i+1:]...)
			if len(p.hot) == p.cfg.HotEntries {
				demoted := p.hot[len(p.hot)-1]
				p.hot = p.hot[:len(p.hot)-1]
				p.cold = append(p.cold, demoted)
			}
			p.hot = append(p.hot, victim)
			continue
		}
		if len(p.cold) == p.cfg.ColdEntries {
			p.cold[p.rng.Intn(len(p.cold))] = victim
			continue
		}
		p.cold = append(p.cold, victim)
	}
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (p *PRoHIT) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(p, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator: at each REF command, with
// probability TickRefreshP, the current top of the hot table is refreshed.
// The entry is neither retired nor reordered: hot-table order changes only
// through hit-driven move-ups, so the refresh budget follows access
// frequency — "the more frequently accessed rows are more likely to be
// chosen for victim row refreshes" (§V-A). Victims that rarely climb the
// table are starved, which is exactly the Fig. 7(a) vulnerability.
func (p *PRoHIT) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	if len(p.hot) == 0 || p.rng.Float64() >= p.cfg.TickRefreshP {
		return dst
	}
	p.refreshes++
	p.victimCell[0] = p.hot[0]
	return append(dst, mitigation.VictimRefresh{Rows: p.victimCell[:]})
}

// Cost implements mitigation.Mitigator: two small row-address CAMs.
func (p *PRoHIT) Cost() mitigation.HardwareCost {
	entries := p.cfg.HotEntries + p.cfg.ColdEntries
	return mitigation.HardwareCost{
		Entries: entries,
		CAMBits: entries * mitigation.Bits(p.cfg.Rows),
	}
}

// Factory returns a mitigation.Factory; each bank gets an independent RNG
// stream derived from the base seed.
func Factory(cfg Config) mitigation.Factory {
	next := cfg.Seed
	return func() (mitigation.Mitigator, error) {
		c := cfg
		c.Seed = next
		next++
		return New(c)
	}
}
