// Package graphene implements the paper's primary contribution: a per-bank
// Row Hammer aggressor tracker built on the Misra-Gries frequent-elements
// algorithm (§III), with the architectural optimizations of §IV — the
// overflow-bit count compression and the adjustable reset window — and the
// non-adjacent (±n) extension of §III-D.
package graphene

import (
	"fmt"
	"math"

	"graphene/internal/dram"
	"graphene/internal/mitigation"
)

// MuModel is the shared disturbance-decay model; see mitigation.MuModel.
type MuModel = mitigation.MuModel

// UniformMu and InverseSquareMu re-export the shared μ models for
// convenience at Graphene call sites.
var (
	UniformMu       = mitigation.UniformMu
	InverseSquareMu = mitigation.InverseSquareMu
)

// Config selects a Graphene instance for one bank.
type Config struct {
	// TRH is the Row Hammer threshold: the minimum aggressor ACT count that
	// can flip a victim bit (50K for the paper's DDR4 baseline).
	TRH int64

	// K divides the reset window: the table resets every tREFW/K (§IV-C).
	// K = 1 reproduces §III-B; the paper evaluates K = 2.
	K int

	// Distance is the farthest row an aggressor can disturb (n in §III-D).
	// 1 means classic ±1 Row Hammer.
	Distance int

	// Mu is the disturbance-decay model for Distance > 1. Defaults to
	// UniformMu when nil.
	Mu MuModel

	// Timing supplies the DRAM parameters that bound W. Zero value is
	// replaced by dram.DDR4().
	Timing dram.Timing

	// Rows is the number of rows per bank (address bit-width of the CAM).
	// Defaults to 64K.
	Rows int

	// DisableOverflowBit turns off the §IV-B count compression so counts
	// are stored full-width. Protection behaviour is identical; only the
	// modeled table bits change. Kept as an ablation knob.
	DisableOverflowBit bool

	// Rowpress enables duration-aware tracking: an ACT whose open-row
	// dwell exceeds the device's nRAS (Timing.NRAS()) counts as
	// 1 + ceil((dwell−nRAS)/nRAS) activations
	// (mitigation.RowpressIncrement), and Derive sizes the table for the
	// worst-case increment rate instead of the worst-case ACT rate. Off
	// (the default), dwell columns are ignored and behaviour is
	// bit-identical to the pre-RowPress engine.
	Rowpress bool
}

func (c Config) withDefaults() Config {
	if c.Mu == nil {
		c.Mu = UniformMu
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	if c.Rows == 0 {
		c.Rows = 64 * 1024
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.Distance == 0 {
		c.Distance = 1
	}
	return c
}

// Params are the derived operating parameters of a Graphene bank (Table II
// and §IV-C).
type Params struct {
	T         int64     // aggressor tracking threshold
	W         int64     // max ACTs per reset window
	NEntry    int       // counter-table entries
	Window    dram.Time // reset window length (tREFW/K)
	AmpFactor float64   // 1 + μ₂ + … + μₙ

	AddrBits  int // row-address CAM width per entry
	CountBits int // count field width per entry (incl. overflow bit if used)
	EntryBits int // AddrBits + CountBits
	TableBits int // EntryBits × NEntry
}

// Derive computes the Graphene parameters from the configuration:
//
//	T      < TRH / (2(K+1)·amp) + 1            (Inequalities 2 and 3, §III-D)
//	W      = (tREFW/K)·(1 − tRFC/tREFI)/tRC    (§III-B)
//	Nentry : smallest integer with Nentry > W/T − 1   (Inequality 1)
//
// For the paper's defaults (TRH 50K, K 1, ±1) this yields T = 12.5K,
// W ≈ 1,360K and Nentry = 108 (Table II); K = 2 yields T = 8,333 and
// Nentry = 81 (§IV-C, Table IV).
func (c Config) Derive() (Params, error) {
	c = c.withDefaults()
	if c.TRH <= 0 {
		return Params{}, fmt.Errorf("graphene: TRH must be positive, got %d", c.TRH)
	}
	if c.K < 1 {
		return Params{}, fmt.Errorf("graphene: K must be >= 1, got %d", c.K)
	}
	if c.Distance < 1 {
		return Params{}, fmt.Errorf("graphene: Distance must be >= 1, got %d", c.Distance)
	}
	if c.Rows < 1 {
		return Params{}, fmt.Errorf("graphene: Rows must be >= 1, got %d", c.Rows)
	}
	if int64(c.Rows) > math.MaxInt32 {
		// The table narrows rows to its int32 address CAM; a larger bank
		// would silently alias rows onto shared counters (Observe also
		// panics on out-of-range rows as a second line of defense).
		return Params{}, fmt.Errorf("graphene: Rows %d exceeds the int32 row address space (%d)", c.Rows, math.MaxInt32)
	}
	if err := c.Timing.Validate(); err != nil {
		return Params{}, err
	}
	amp, err := mitigation.AmpFactor(c.Distance, c.Mu)
	if err != nil {
		return Params{}, err
	}

	t := int64(float64(c.TRH) / (2 * float64(c.K+1) * amp))
	if t < 1 {
		return Params{}, fmt.Errorf("graphene: derived T < 1 (TRH %d too small for K %d, distance %d)", c.TRH, c.K, c.Distance)
	}
	window := c.Timing.TREFW / dram.Time(c.K)
	w := c.Timing.MaxACTs(window)
	if c.Rowpress {
		// Duration-aware sizing: one ACT holding its row open for dwell
		// occupies the bank for max(tRC, dwell+tRP) yet earns
		// 1 + ceil((dwell−nRAS)/nRAS) increments, so the worst-case
		// increment rate is 1/nRAS (tRAS < tRC, and the fallback nRAS is
		// tRC − tRP) — an attacker trades ACT frequency against per-ACT
		// weight. Sizing W to that rate keeps Inequality 1 (and with it
		// the spillover bound and the tracking guarantee) valid over
		// increments instead of raw ACTs.
		avail := float64(window) * (1 - float64(c.Timing.TRFC)/float64(c.Timing.TREFI))
		w = int64(avail / float64(c.Timing.NRAS()))
	}
	if w <= 0 {
		return Params{}, fmt.Errorf("graphene: window %v admits no activations", window)
	}
	// Smallest Nentry with (Nentry+1)·T > W.
	nentry := int(w / t)
	if int64(nentry+1)*t <= w {
		nentry++
	}
	if nentry < 1 {
		nentry = 1
	}

	p := Params{
		T:         t,
		W:         w,
		NEntry:    nentry,
		Window:    window,
		AmpFactor: amp,
		AddrBits:  mitigation.Bits(c.Rows),
	}
	// Widths stay in int64: W can exceed the int range at large reset
	// windows, and int(w)+1 would overflow before the width is taken.
	if c.DisableOverflowBit {
		p.CountBits = mitigation.Bits64(w + 1)
	} else {
		// Count up to T plus one overflow bit (§IV-B).
		p.CountBits = mitigation.Bits64(t+1) + 1
	}
	p.EntryBits = p.AddrBits + p.CountBits
	p.TableBits = p.EntryBits * p.NEntry
	return p, nil
}

// AmpFactor computes 1 + μ₂ + … + μₙ; see mitigation.AmpFactor.
func AmpFactor(n int, mu MuModel) (float64, error) { return mitigation.AmpFactor(n, mu) }
