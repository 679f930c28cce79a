// Package mrloc implements MRLoc (You & Yang, DAC 2019) as described in the
// Graphene paper (§II-C, §V-A): a probabilistic scheme whose history table
// "is a simple queue, which tracks the access pattern by taking victim rows
// of an incoming stream of ACTs", refreshing queued victims with a
// probability raised above the base PARA probability according to locality.
//
// Reconstruction notes (the Graphene paper does not give MRLoc's full
// pseudo-code): for every ACT we derive the two (±1) victim rows. A victim
// already in the queue is refreshed with probability p·boost, where boost
// grows linearly with how recently the victim was enqueued; a victim absent
// from the queue is refreshed with the base probability p, exactly like
// PARA. Every derived victim is then (re-)enqueued at the tail, evicting
// the head when the queue is full. This reproduces the two properties the
// paper relies on: (i) "it refreshes rows being tracked by the history
// queue with higher probability than p", and (ii) a rotation over more
// distinct victims than queue entries (Fig. 7(b)) evicts every victim
// before its next appearance, collapsing MRLoc to plain PARA.
package mrloc

import (
	"fmt"
	"math/rand"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects an MRLoc instance for one bank.
type Config struct {
	BaseP    float64 // base refresh probability (PARA-equivalent p)
	MaxBoost float64 // boost multiplier for the most recently queued victim (>= 1)
	Entries  int     // history-queue length (paper's example: 15)
	Rows     int     // rows per bank; default 64K
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 15
	}
	if c.MaxBoost == 0 {
		c.MaxBoost = 8
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	return c
}

// MRLoc is the per-bank engine. It implements mitigation.Mitigator.
type MRLoc struct {
	cfg Config
	rng *rand.Rand

	queue []int       // victim history, head = oldest
	pos   map[int]int // victim row -> index in queue

	// victimCells backs the single-row Rows slices of appended refreshes —
	// one cell per side, recycled every AppendOnActivate (API v2 contract,
	// DESIGN.md §9).
	victimCells [2]int

	refreshes int64
}

var _ mitigation.Mitigator = (*MRLoc)(nil)

// New builds an MRLoc engine from cfg.
func New(cfg Config) (*MRLoc, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseP < 0 || cfg.BaseP > 1 {
		return nil, fmt.Errorf("mrloc: base probability %g out of [0, 1]", cfg.BaseP)
	}
	if cfg.MaxBoost < 1 {
		return nil, fmt.Errorf("mrloc: max boost %g must be >= 1", cfg.MaxBoost)
	}
	if cfg.Entries < 1 {
		return nil, fmt.Errorf("mrloc: queue needs at least one entry, got %d", cfg.Entries)
	}
	return &MRLoc{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		queue: make([]int, 0, cfg.Entries),
		pos:   make(map[int]int, cfg.Entries),
	}, nil
}

// Name implements mitigation.Mitigator.
func (m *MRLoc) Name() string { return fmt.Sprintf("mrloc-%d", m.cfg.Entries) }

// VictimRefreshes returns the number of rows refreshed so far.
func (m *MRLoc) VictimRefreshes() int64 { return m.refreshes }

// QueueLen returns the current history-queue occupancy.
func (m *MRLoc) QueueLen() int { return len(m.queue) }

// probability returns the refresh probability for a victim found at queue
// index idx. The locality signal is the re-reference distance: how many
// enqueues ago the victim last appeared (1 = the most recent tail entry).
// The probability interpolates from BaseP·MaxBoost at distance 1 down
// toward BaseP as the distance approaches the queue capacity — "refreshes
// rows being tracked by the history queue with higher probability than p"
// (§V-A).
func (m *MRLoc) probability(idx int) float64 {
	dist := len(m.queue) - idx // 1 = most recently enqueued
	frac := float64(dist-1) / float64(m.cfg.Entries)
	p := m.cfg.BaseP * (m.cfg.MaxBoost - (m.cfg.MaxBoost-1)*frac)
	return min(1, p)
}

// AppendOnActivate implements mitigation.Mitigator. Appended Rows slices
// alias m's recycled victim cells and are valid only until the next call.
func (m *MRLoc) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	for side, victim := range [2]int{row - 1, row + 1} {
		if victim < 0 || victim >= m.cfg.Rows {
			continue
		}
		p := m.cfg.BaseP
		if idx, ok := m.pos[victim]; ok {
			p = m.probability(idx)
		}
		if p > 0 && m.rng.Float64() < p {
			m.refreshes++
			m.victimCells[side] = victim
			dst = append(dst, mitigation.VictimRefresh{Rows: m.victimCells[side : side+1 : side+1]})
		}
		m.enqueue(victim)
	}
	return dst
}

// enqueue moves victim to the queue tail, evicting the oldest entry when
// the queue is full.
func (m *MRLoc) enqueue(victim int) {
	if idx, ok := m.pos[victim]; ok {
		copy(m.queue[idx:], m.queue[idx+1:])
		m.queue[len(m.queue)-1] = victim
		for i := idx; i < len(m.queue); i++ {
			m.pos[m.queue[i]] = i
		}
		return
	}
	if len(m.queue) == m.cfg.Entries {
		evicted := m.queue[0]
		delete(m.pos, evicted)
		copy(m.queue, m.queue[1:])
		m.queue = m.queue[:len(m.queue)-1]
		for i, v := range m.queue {
			m.pos[v] = i
		}
	}
	m.queue = append(m.queue, victim)
	m.pos[victim] = len(m.queue) - 1
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (m *MRLoc) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(m, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator; MRLoc takes no refresh-time
// action.
func (m *MRLoc) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

// Cost implements mitigation.Mitigator: the history queue is a small CAM of
// row addresses.
func (m *MRLoc) Cost() mitigation.HardwareCost {
	return mitigation.HardwareCost{
		Entries: m.cfg.Entries,
		CAMBits: m.cfg.Entries * mitigation.Bits(m.cfg.Rows),
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
