package sim

import (
	"fmt"
	"sort"

	"graphene/internal/area"
	"graphene/internal/cbt"
	"graphene/internal/cra"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/mitigation"
	"graphene/internal/mrloc"
	"graphene/internal/para"
	"graphene/internal/perrow"
	"graphene/internal/prohit"
	"graphene/internal/trace"
	"graphene/internal/trr"
	"graphene/internal/twice"
	"graphene/internal/workload"
)

// BuildWorkload resolves a workload name — a realistic profile (mcf, …),
// one of the adversarial patterns (S1-10, S1-20, S2, S3, S4), a Fig. 7
// pattern (prohit-pattern, mrloc-pattern), or "worst" (the Graphene
// rotation worst case) — into a generator. attack reports whether the
// stream targets a single bank at the maximum rate.
func BuildWorkload(name string, sc Scale, trh int64) (gen trace.Generator, attack bool, err error) {
	rows := sc.Geometry.RowsPerBank
	total := int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
	switch name {
	case "S1-10":
		return workload.S1(0, rows, 10, total), true, nil
	case "S1-20":
		return workload.S1(0, rows, 20, total), true, nil
	case "S2":
		return workload.S2(0, rows, 10, 0.2, total, sc.Seed), true, nil
	case "S3":
		return workload.S3(0, rows/2, total), true, nil
	case "S4":
		return workload.S4(0, rows, rows/2, 0.5, total, sc.Seed), true, nil
	case "prohit-pattern":
		return workload.ProHITPattern(0, rows/2, total), true, nil
	case "mrloc-pattern":
		return workload.MRLocPattern(0, rows/2, 5, total), true, nil
	case "rowpress":
		dwell, n := rowPressPlan(sc)
		return workload.RowPressSingle(0, rows/2, dwell, n), true, nil
	case "rowpress-double":
		dwell, n := rowPressPlan(sc)
		return workload.RowPressDouble(0, rows/2, dwell, n), true, nil
	case "worst":
		p, err := graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: sc.Timing}.Derive()
		if err != nil {
			return nil, false, err
		}
		return WorstCase(sc, p.NEntry), true, nil
	default:
		prof, err := workload.ProfileByName(name)
		if err != nil {
			return nil, false, fmt.Errorf("sim: %w (attacks: %v)", err, AttackNames())
		}
		gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
		return gen, false, err
	}
}

// AttackNames lists the workload names BuildWorkload accepts beyond the
// realistic profiles.
func AttackNames() []string {
	names := []string{"S1-10", "S1-20", "S2", "S3", "S4", "prohit-pattern", "mrloc-pattern", "worst", "rowpress", "rowpress-double"}
	sort.Strings(names)
	return names
}

// RowPressDwell is the open-row time of the built-in rowpress workloads,
// as a multiple of the device's minimum (nRAS). Each ACT then carries ~8×
// the unit disturbance, so a victim flips after ~TRH/8 activations —
// far below the count any duration-blind tracker waits for.
const RowPressDwell = 8

// rowPressPlan sizes the built-in RowPress attacks: the dwell (8× nRAS)
// and the number of ACTs that fit in sc.AdversarialWindows refresh windows
// at that dwell (each ACT occupies ActCycle(dwell) instead of tRC).
func rowPressPlan(sc Scale) (dram.Time, int64) {
	dwell := RowPressDwell * sc.Timing.NRAS()
	n := int64(sc.AdversarialWindows * float64(sc.Timing.TREFW) / float64(sc.Timing.ActCycle(dwell)))
	return dwell, n
}

// BuildScheme resolves a scheme name into a per-bank factory plus a
// display name. "none" returns a nil factory (unprotected baseline).
func BuildScheme(name string, trh int64, k, distance, rows int, sc Scale) (mitigation.Factory, string, error) {
	switch name {
	case "none":
		return nil, "none (unprotected)", nil
	case "graphene":
		return graphene.Factory(graphene.Config{TRH: trh, K: k, Distance: distance, Rows: rows, Timing: sc.Timing, Rowpress: sc.Rowpress}),
			fmt.Sprintf("graphene-k%d", k), nil
	case "twice":
		return twice.Factory(twice.Config{TRH: trh, Distance: distance, Rows: rows, Timing: sc.Timing, Rowpress: sc.Rowpress}), "twice", nil
	case "cbt":
		counters, levels := area.CBTCountersFor(trh)
		return cbt.Factory(cbt.Config{TRH: trh, Counters: counters, Levels: levels, Rows: rows, Timing: sc.Timing, Distance: distance, Rowpress: sc.Rowpress}),
			fmt.Sprintf("cbt-%d", counters), nil
	case "para":
		p, err := ParaP(trh)
		if err != nil {
			return nil, "", err
		}
		pcfg := para.Classic(p, rows, sc.Seed)
		pcfg.Timing = sc.Timing
		pcfg.Rowpress = sc.Rowpress
		return para.Factory(pcfg), fmt.Sprintf("para-%.5f", p), nil
	case "prohit":
		return prohit.Factory(prohit.Config{Rows: rows, Seed: sc.Seed}), "prohit", nil
	case "mrloc":
		p, err := ParaP(trh)
		if err != nil {
			return nil, "", err
		}
		return mrloc.Factory(mrloc.Config{BaseP: p, Rows: rows, Seed: sc.Seed}), "mrloc", nil
	case "cra":
		return cra.Factory(cra.Config{TRH: trh, Rows: rows, Distance: distance}), "cra", nil
	case "perrow":
		return perrow.Factory(perrow.Config{TRH: trh, Rows: rows, Distance: distance, Timing: sc.Timing}), "perrow", nil
	case "trr":
		return trr.Factory(trr.Config{Rows: rows, Distance: distance, Seed: sc.Seed}), "trr", nil
	default:
		return nil, "", fmt.Errorf("sim: unknown scheme %q (have %v)", name, SchemeNames())
	}
}

// SchemeNames lists the names BuildScheme accepts.
func SchemeNames() []string {
	return []string{"graphene", "twice", "cbt", "para", "prohit", "mrloc", "cra", "perrow", "trr", "none"}
}
