package sim

import (
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/stats"
	"graphene/internal/workload"
)

// Fig6Row is one point of Fig. 6: the reset-window divisor k against the
// table size and the worst-case additional-refresh ratio.
type Fig6Row struct {
	K      int
	T      int64
	NEntry int

	// WorstCaseRefreshRatio is the worst-case victim rows refreshed per
	// tREFW relative to the rows the normal routine refreshes in the same
	// span. An adversary needs T ACTs per trigger, so at most
	// floor(W_k/T_k) triggers per reset window × 2·distance rows × k
	// windows per tREFW.
	WorstCaseRefreshRatio float64
}

// Fig6 computes the reset-window trade-off analytically for k = 1…maxK
// (the paper sweeps to 10): table size shrinks quickly and saturates while
// the worst-case refresh overhead keeps growing. TestFig6WorstCaseMatches
// cross-checks the analytic worst case against simulation.
func Fig6(trh int64, rows int, timing dram.Timing, distance int, maxK int) ([]Fig6Row, error) {
	var out []Fig6Row
	for k := 1; k <= maxK; k++ {
		p, err := graphene.Config{TRH: trh, K: k, Rows: rows, Timing: timing, Distance: distance}.Derive()
		if err != nil {
			return nil, err
		}
		triggers := p.W / p.T // per reset window
		extraRows := float64(triggers) * float64(2*distance) * float64(k)
		out = append(out, Fig6Row{
			K:                     k,
			T:                     p.T,
			NEntry:                p.NEntry,
			WorstCaseRefreshRatio: extraRows / float64(rows),
		})
	}
	return out, nil
}

// ScalingRow is one Row Hammer threshold's averaged overheads across
// schemes (Fig. 9(b)–(d)).
type ScalingRow struct {
	TRH   int64
	Cells []Cell // averaged over the sweep's workloads/patterns
}

// ScalingWorkloads returns the representative subset used to keep the TRH
// sweep tractable: the most intensive, a mid, and a light profile.
func ScalingWorkloads() []workload.Profile {
	want := map[string]bool{"mcf": true, "libquantum": true, "mix-blend": true, "canneal": true}
	var out []workload.Profile
	for _, p := range workload.Profiles() {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// average folds per-workload rows into one averaged cell per scheme.
func average(trh int64, rows []Row) ScalingRow {
	type acc struct {
		overhead, slowdown stats.Running
		victims            int64
		flips              int
	}
	order := []string{}
	accs := map[string]*acc{}
	for _, row := range rows {
		for _, c := range row.Cells {
			a, ok := accs[c.Scheme]
			if !ok {
				a = &acc{}
				accs[c.Scheme] = a
				order = append(order, c.Scheme)
			}
			a.overhead.Add(c.RefreshOverhead)
			a.slowdown.Add(c.Slowdown)
			a.victims += c.VictimRows
			a.flips += c.Flips
		}
	}
	out := ScalingRow{TRH: trh}
	for _, name := range order {
		a := accs[name]
		out.Cells = append(out.Cells, Cell{
			Scheme:          name,
			RefreshOverhead: a.overhead.Mean(),
			Slowdown:        a.slowdown.Mean(),
			VictimRows:      a.victims,
			Flips:           a.flips,
		})
	}
	return out
}
