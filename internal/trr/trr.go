// Package trr models the in-DRAM Target Row Refresh mitigations that
// vendors shipped after the public disclosure of Row Hammer and that the
// paper's motivation leans on: "a recent report [TRRespass, Frigo et al.
// S&P 2020] reveals that even the latest DDR4 DIMMs are still susceptible
// to Row Hammer under specific memory access patterns" (§II-B).
//
// The model follows the structure TRRespass reverse-engineered: the device
// keeps a tiny sampler of candidate aggressor rows (a handful of entries,
// fed by sampling the ACT stream), and on (some) REF commands it refreshes
// the neighbors of the strongest candidate instead of only the rows due
// for regular refresh. The defense works against the classic one- and
// two-aggressor patterns the sampler was sized for, and collapses under
// many-sided patterns whose aggressor count exceeds the sampler — exactly
// the TRRespass result, reproduced here against the disturbance oracle.
//
// TRR is implemented as a mitigation.Mitigator so it slots into the same
// harness as the paper's schemes, even though it lives in the device
// rather than the memory controller.
package trr

import (
	"fmt"
	"math/rand"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// Config selects a TRR instance for one bank.
type Config struct {
	// SamplerEntries is the candidate-table size (TRRespass found 1–16 on
	// real DIMMs; default 2).
	SamplerEntries int

	// SampleP is the per-ACT probability that the sampler considers the
	// activation at all (real samplers watch a subset of the stream;
	// default 0.5).
	SampleP float64

	// RefreshEvery issues the TRR action on every n-th REF command
	// (default 1: every REF).
	RefreshEvery int

	Distance int // neighborhood refreshed around the chosen aggressor; default 1
	Rows     int // default 64K
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.SamplerEntries == 0 {
		c.SamplerEntries = 2
	}
	if c.SampleP == 0 {
		c.SampleP = 0.5
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 1
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	return c
}

type candidate struct {
	row   int
	count int64
}

// TRR is the per-bank engine. It implements mitigation.Mitigator.
type TRR struct {
	cfg Config
	rng *rand.Rand

	sampler []candidate
	ticks   int64

	refreshes int64
}

var _ mitigation.Mitigator = (*TRR)(nil)

// New builds a TRR engine from cfg.
func New(cfg Config) (*TRR, error) {
	cfg = cfg.withDefaults()
	if cfg.SamplerEntries < 1 {
		return nil, fmt.Errorf("trr: sampler needs at least one entry, got %d", cfg.SamplerEntries)
	}
	if cfg.SampleP < 0 || cfg.SampleP > 1 {
		return nil, fmt.Errorf("trr: sample probability %g out of [0, 1]", cfg.SampleP)
	}
	if cfg.RefreshEvery < 1 {
		return nil, fmt.Errorf("trr: RefreshEvery must be >= 1, got %d", cfg.RefreshEvery)
	}
	return &TRR{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements mitigation.Mitigator.
func (t *TRR) Name() string { return fmt.Sprintf("trr-%d", t.cfg.SamplerEntries) }

// VictimRefreshes returns the number of TRR refreshes issued.
func (t *TRR) VictimRefreshes() int64 { return t.refreshes }

// Sampler returns the current candidate rows (tests).
func (t *TRR) Sampler() []int {
	out := make([]int, 0, len(t.sampler))
	for _, c := range t.sampler {
		out = append(out, c.row)
	}
	return out
}

// AppendOnActivate implements mitigation.Mitigator: probabilistic sampling
// into the tiny candidate table. A sampled row already present bumps its
// count; otherwise it takes a free slot, or evicts the weakest candidate —
// the capacity limit many-sided attacks exploit.
func (t *TRR) AppendOnActivate(dst []mitigation.VictimRefresh, row int, now dram.Time) []mitigation.VictimRefresh {
	if t.cfg.SampleP < 1 && t.rng.Float64() >= t.cfg.SampleP {
		return dst
	}
	weakest := -1
	for i := range t.sampler {
		if t.sampler[i].row == row {
			t.sampler[i].count++
			return dst
		}
		if weakest < 0 || t.sampler[i].count < t.sampler[weakest].count {
			weakest = i
		}
	}
	if len(t.sampler) < t.cfg.SamplerEntries {
		t.sampler = append(t.sampler, candidate{row: row, count: 1})
		return dst
	}
	// Evict the weakest candidate; the newcomer does not inherit its
	// count (unlike Misra-Gries — this is what breaks the guarantee).
	t.sampler[weakest] = candidate{row: row, count: 1}
	return dst
}

// AppendOnActivateBatch implements mitigation.Mitigator through the
// shared scalar-loop adapter (the controller's batch replay still saves
// the per-ACT dispatch and timing work around it).
func (t *TRR) AppendOnActivateBatch(dst []mitigation.VictimRefresh, rows []int32, now, dwell []dram.Time) ([]mitigation.VictimRefresh, int) {
	return mitigation.ScalarBatch(t, dst, rows, now, dwell)
}

// AppendTick implements mitigation.Mitigator: on every RefreshEvery-th
// REF, the strongest candidate's neighborhood is refreshed and the
// candidate is retired.
func (t *TRR) AppendTick(dst []mitigation.VictimRefresh, now dram.Time) []mitigation.VictimRefresh {
	t.ticks++
	if t.ticks%int64(t.cfg.RefreshEvery) != 0 || len(t.sampler) == 0 {
		return dst
	}
	strongest := 0
	for i := range t.sampler {
		if t.sampler[i].count > t.sampler[strongest].count {
			strongest = i
		}
	}
	row := t.sampler[strongest].row
	t.sampler = append(t.sampler[:strongest], t.sampler[strongest+1:]...)
	t.refreshes++
	return append(dst, mitigation.VictimRefresh{Aggressor: row, Distance: t.cfg.Distance})
}

// Cost implements mitigation.Mitigator: the sampler is a few CAM entries
// inside the device.
func (t *TRR) Cost() mitigation.HardwareCost {
	per := mitigation.Bits(t.cfg.Rows) + 8 // address + small saturating count
	return mitigation.HardwareCost{
		Entries: t.cfg.SamplerEntries,
		CAMBits: t.cfg.SamplerEntries * per,
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
