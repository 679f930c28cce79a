// Package cra implements CRA (Kim, Nair & Qureshi, CAL 2015), the
// counter-cache scheme the paper surveys (§II-C): a full set of per-row
// activation counters lives in a reserved DRAM region, and the memory
// controller caches the counters of recently activated rows on chip.
// The paper's criticism — "this scheme performs poorly for an access
// pattern with little locality" — shows up here as counter-cache misses,
// each costing an extra DRAM read and write that the simulator charges as
// bank-busy time and energy.
package cra

import (
	"container/list"
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a CRA instance for one bank.
type Config struct {
	TRH        int64 // Row Hammer threshold
	CacheLines int   // on-chip counter-cache entries (default 128)
	Rows       int   // rows per bank; default 64K
	Distance   int   // victim refresh reach; default 1
}

func (c Config) withDefaults() Config {
	if c.CacheLines == 0 {
		c.CacheLines = 128
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	return c
}

type line struct {
	row   int
	count int64
}

// CRA is the per-bank engine. It implements mitigation.Mitigator.
type CRA struct {
	cfg       Config
	threshold int64

	lru   *list.List // front = most recent; values are *line
	index map[int]*list.Element

	backing map[int]int64 // counters spilled to DRAM

	hits, misses int64
	refreshes    int64
}

var _ mitigation.Mitigator = (*CRA)(nil)

// New builds a CRA engine from cfg.
func New(cfg Config) (*CRA, error) {
	cfg = cfg.withDefaults()
	if cfg.TRH <= 0 {
		return nil, fmt.Errorf("cra: TRH must be positive, got %d", cfg.TRH)
	}
	if cfg.CacheLines < 1 {
		return nil, fmt.Errorf("cra: cache needs at least one line, got %d", cfg.CacheLines)
	}
	return &CRA{
		cfg:       cfg,
		threshold: cfg.TRH / 4, // same double-sided + window-phase factor
		lru:       list.New(),
		index:     make(map[int]*list.Element, cfg.CacheLines),
		backing:   make(map[int]int64),
	}, nil
}

// Name implements mitigation.Mitigator.
func (c *CRA) Name() string { return fmt.Sprintf("cra-%d", c.cfg.CacheLines) }

// Hits and Misses report counter-cache behaviour.
func (c *CRA) Hits() int64   { return c.hits }
func (c *CRA) Misses() int64 { return c.misses }

// ExtraDRAMAccesses returns the DRAM counter reads+writes caused by cache
// misses (one writeback + one fill per miss). The simulator charges these
// against the bank.
func (c *CRA) ExtraDRAMAccesses() int64 { return 2 * c.misses }

// VictimRefreshes returns the number of victim refreshes issued.
func (c *CRA) VictimRefreshes() int64 { return c.refreshes }

// AppendOnActivate implements mitigation.Mitigator.
func (c *CRA) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	var ln *line
	if el, ok := c.index[row]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		ln = el.Value.(*line)
	} else {
		c.misses++
		if c.lru.Len() >= c.cfg.CacheLines {
			back := c.lru.Back()
			ev := back.Value.(*line)
			c.backing[ev.row] = ev.count // writeback
			delete(c.index, ev.row)
			c.lru.Remove(back)
		}
		ln = &line{row: row, count: c.backing[row]} // fill
		c.index[row] = c.lru.PushFront(ln)
	}
	ln.count++
	if ln.count < c.threshold {
		return dst
	}
	ln.count = 0
	delete(c.backing, row)
	c.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: c.cfg.Distance})
}

// AppendOnActivateBatch implements mitigation.Mitigator. It stops after
// the first counter-cache miss as well as after the first append: the
// miss's counter traffic occupies the bank before the next ACT, so the
// controller must charge it before later start times hold.
func (c *CRA) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	for i, r := range rows {
		pre, misses := len(dst), c.misses
		dst = c.AppendOnActivate(dst, int(r), now[i])
		if len(dst) > pre || c.misses > misses {
			return dst, i + 1
		}
	}
	return dst, len(rows)
}

// AppendTick implements mitigation.Mitigator; CRA takes no refresh-time
// action.
func (c *CRA) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	return dst
}

// Cost implements mitigation.Mitigator: only the on-chip cache counts as
// tracking hardware (the full counter array lives in DRAM).
func (c *CRA) Cost() mitigation.HardwareCost {
	per := mitigation.Bits(c.cfg.Rows) + mitigation.Bits(int(c.threshold)+1)
	return mitigation.HardwareCost{
		Entries: c.cfg.CacheLines,
		CAMBits: c.cfg.CacheLines * per,
	}
}

// Factory returns a mitigation.Factory building identical CRA engines.
func Factory(cfg Config) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return New(cfg) }
}
