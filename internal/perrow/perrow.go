// Package perrow implements the strawman the paper dismisses in one line —
// "having a counter for every row is not a scalable solution" (§II-C) — as
// the ideal-tracking reference point: one dedicated activation counter per
// DRAM row, victim refresh at TRH/4 (the same double-sided + refresh-phase
// factor as the other counter schemes), counters cleared by the rolling
// auto-refresh.
//
// It is sound by construction and issues the minimum possible victim
// refreshes for a counter scheme of its threshold, which makes it the
// yardstick for false-positive comparisons — and its Cost() makes the
// paper's point: 1.3 Mbit per bank versus Graphene's 2.5 Kbit.
package perrow

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a per-row tracker for one bank.
type Config struct {
	TRH      int64
	Rows     int // default 64K
	Distance int // victim refresh reach; default 1
	Timing   dram.Timing
}

func (c Config) withDefaults() Config {
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

// PerRow is the per-bank engine. It implements mitigation.Mitigator.
type PerRow struct {
	cfg       Config
	threshold int64
	counts    []int64

	// The rolling reset mirrors the auto-refresh routine: every tREFI the
	// next rows/REFsPerWindow counters clear, because their rows were just
	// refreshed and their victims' accumulated disturbance restarted.
	rowsPerTick int
	clearPtr    int

	refreshes int64
}

var _ mitigation.Mitigator = (*PerRow)(nil)

// New builds a per-row tracker from cfg.
func New(cfg Config) (*PerRow, error) {
	cfg = cfg.withDefaults()
	if cfg.TRH <= 0 {
		return nil, fmt.Errorf("perrow: TRH must be positive, got %d", cfg.TRH)
	}
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("perrow: rows must be positive, got %d", cfg.Rows)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	threshold := cfg.TRH / 4
	if threshold < 1 {
		return nil, fmt.Errorf("perrow: TRH %d too small", cfg.TRH)
	}
	refs := cfg.Timing.RefreshCommandsPerWindow()
	per := int((int64(cfg.Rows) + refs - 1) / refs)
	if per < 1 {
		per = 1
	}
	return &PerRow{
		cfg:         cfg,
		threshold:   threshold,
		counts:      make([]int64, cfg.Rows),
		rowsPerTick: per,
	}, nil
}

// Name implements mitigation.Mitigator.
func (p *PerRow) Name() string { return "perrow" }

// Threshold returns the victim-refresh threshold (TRH/4).
func (p *PerRow) Threshold() int64 { return p.threshold }

// VictimRefreshes returns the victim refreshes issued so far.
func (p *PerRow) VictimRefreshes() int64 { return p.refreshes }

// Count returns row's current activation count.
func (p *PerRow) Count(row int) int64 { return p.counts[row] }

// AppendOnActivate implements mitigation.Mitigator.
func (p *PerRow) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	if row < 0 || row >= p.cfg.Rows {
		panic(fmt.Sprintf("perrow: row %d out of range [0,%d)", row, p.cfg.Rows))
	}
	p.counts[row]++
	if p.counts[row] < p.threshold {
		return dst
	}
	p.counts[row] = 0
	p.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: p.cfg.Distance})
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (p *PerRow) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(p, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator: clear the counters of the
// rows the auto-refresh routine just covered (their victims are clean
// again).
func (p *PerRow) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	for i := 0; i < p.rowsPerTick; i++ {
		p.counts[p.clearPtr] = 0
		p.clearPtr = (p.clearPtr + 1) % p.cfg.Rows
	}
	return dst
}

// Cost implements mitigation.Mitigator: one SRAM counter per row — the
// non-scalable price the paper rejects (§II-C).
func (p *PerRow) Cost() mitigation.HardwareCost {
	per := mitigation.Bits(int(p.threshold) + 1)
	return mitigation.HardwareCost{
		Entries:  p.cfg.Rows,
		SRAMBits: p.cfg.Rows * per,
	}
}

// Factory returns a mitigation.Factory building identical trackers.
func Factory(cfg Config) mitigation.Factory {
	return func() (mitigation.Mitigator, error) { return New(cfg) }
}
