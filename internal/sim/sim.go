// Package sim is the experiment façade: it wires workloads, protection
// schemes, the memory-controller simulator, and the accounting together
// into the sweeps that regenerate the paper's figures. The cmd/ tools, the
// examples, and the benchmark harness all drive this package.
package sim

import (
	"fmt"

	"graphene/internal/area"
	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/security"
	"graphene/internal/stats"
	"graphene/internal/workload"
)

// Scale bundles the simulation sizing knobs so tests can run small and the
// benchmark harness can run at paper scale.
type Scale struct {
	Geometry dram.Geometry
	Timing   dram.Timing

	// WorkloadAccesses is the trace length for one realistic workload run.
	WorkloadAccesses int64

	// AdversarialWindows is how many refresh windows the single-bank
	// adversarial patterns sustain (1.0 = one tREFW at max rate).
	AdversarialWindows float64

	Seed int64

	// Rowpress makes BuildScheme configure duration-aware tracking (each
	// scheme's Rowpress knob): trace dwell columns then weigh counter
	// increments and probabilistic draws. Off (the default), trackers
	// count plain activations and dwell columns are ignored.
	Rowpress bool
}

// Quick returns a test-friendly scale: two banks, short traces.
func Quick() Scale {
	return Scale{
		Geometry:           dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 64 * 1024},
		Timing:             dram.DDR4(),
		WorkloadAccesses:   200_000,
		AdversarialWindows: 0.5,
		Seed:               1,
	}
}

// Full returns the paper's configuration (Table III geometry, full-window
// adversarial runs).
func Full() Scale {
	return Scale{
		Geometry:           dram.Default(),
		Timing:             dram.DDR4(),
		WorkloadAccesses:   4_000_000,
		AdversarialWindows: 1.0,
		Seed:               1,
	}
}

// Spec names one scheme under evaluation. Factory builds the scheme's
// per-bank engine factory for a run whose first engine takes seed (a
// seed-counting factory gives the next bank seed+1, and so on); nil means
// unprotected.
type Spec struct {
	Name    string
	Factory func(seed int64) mitigation.Factory
}

// factory returns the engine factory for a run seeded at seed, or nil for
// an unprotected spec.
func (s Spec) factory(seed int64) mitigation.Factory {
	if s.Factory == nil {
		return nil
	}
	return s.Factory(seed)
}

// ParaP returns the near-complete-protection refresh probability for a
// threshold: the paper's reported value when available, otherwise the
// analytically derived minimum (§V-A).
func ParaP(trh int64) (float64, error) {
	if p, ok := security.PaperParaP[trh]; ok {
		return p, nil
	}
	return security.MinimalParaP(trh, security.DefaultSystem(), 0.01)
}

// CounterSchemes builds the counter-based line-up of §V-B — Graphene (K=2),
// TWiCe, and the CBT size the paper pairs with the threshold — plus PARA at
// its near-complete-protection probability. Every engine is configured by
// BuildScheme, as in rhsim, so sc.Timing and sc.Rowpress reach all four.
func CounterSchemes(trh int64, sc Scale) ([]Spec, error) {
	counters, _ := area.CBTCountersFor(trh)
	p, err := ParaP(trh)
	if err != nil {
		return nil, err
	}
	lineup := []struct{ scheme, label string }{
		{"graphene", "Graphene"},
		{"twice", "TWiCe"},
		{"cbt", fmt.Sprintf("CBT-%d", counters)},
		{"para", fmt.Sprintf("PARA-%.5f", p)},
	}
	specs := make([]Spec, len(lineup))
	for i, s := range lineup {
		if specs[i], err = builtSpec(s.scheme, s.label, trh, sc); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// builtSpec wraps BuildScheme's scheme (k=2, distance 1) as a Spec labeled
// label. The scheme is resolved once here, so a bad configuration fails
// the line-up rather than a cell.
func builtSpec(scheme, label string, trh int64, sc Scale) (Spec, error) {
	if _, _, err := BuildScheme(scheme, trh, 2, 1, sc.Geometry.RowsPerBank, sc); err != nil {
		return Spec{}, err
	}
	return Spec{Name: label, Factory: func(seed int64) mitigation.Factory {
		seeded := sc
		seeded.Seed = seed
		// BuildScheme accepted these arguments above, and no scheme's
		// resolution depends on the seed, so this call cannot fail.
		f, _, _ := BuildScheme(scheme, trh, 2, 1, sc.Geometry.RowsPerBank, seeded)
		return f
	}}, nil
}

// Cell is one (workload, scheme) measurement.
type Cell struct {
	Scheme          string
	RefreshOverhead float64 // victim rows / normal rows (Fig. 8(a)/(b))
	Slowdown        float64 // completion-time increase vs unprotected (Fig. 8(c))
	VictimRows      int64
	NRRCommands     int64
	Flips           int
}

// Row is one workload's measurements across schemes.
type Row struct {
	Workload string
	Cells    []Cell
}

// SeedVariance runs one workload × scheme pair across several seeds and
// returns the refresh-overhead statistics — the error-bar view behind the
// Fig. 8 bars (the paper reports single runs; this quantifies how much the
// synthetic-trace substitution wiggles).
func SeedVariance(sc Scale, trh int64, profileName, schemeName string, seeds []int64) (stats.Running, error) {
	var out stats.Running
	prof, err := workload.ProfileByName(profileName)
	if err != nil {
		return out, err
	}
	for _, seed := range seeds {
		s := sc
		s.Seed = seed
		factory, _, err := BuildScheme(schemeName, trh, 2, 1, s.Geometry.RowsPerBank, s)
		if err != nil {
			return out, err
		}
		gen, err := prof.Generate(s.Geometry, s.Timing, s.WorkloadAccesses, seed)
		if err != nil {
			return out, err
		}
		res, err := memctrl.Run(memctrl.Config{
			Geometry: s.Geometry, Timing: s.Timing, Factory: factory, TRH: trh,
		}, gen)
		if err != nil {
			return out, err
		}
		out.Add(res.RefreshOverhead())
	}
	return out, nil
}
