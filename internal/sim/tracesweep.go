package sim

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/trace"
)

// TraceGeometry is the geometry a recorded trace replays on, given the
// banks and rows it touches (highest index + 1, as trace.Trace.Dims
// reports them): one rank of that many banks (at least one), each with
// sc's rows per bank (the device default's when sc has none) grown to the
// trace's rows. A one-bank recording thus replays on one bank, whatever
// sc's bank count: an idle bank would add auto-refresh rows that dilute
// the refresh overhead.
func TraceGeometry(sc Scale, banks, rows int) dram.Geometry {
	rowsPerBank := sc.Geometry.RowsPerBank
	if rowsPerBank == 0 {
		rowsPerBank = dram.Default().RowsPerBank
	}
	return dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: max(banks, 1), RowsPerBank: max(rowsPerBank, rows)}
}

// LoadTraces reads recorded trace files (text or binary, auto-detected by
// magic) and returns them with a Scale whose geometry is the traces' own,
// the TraceGeometry of the most banks and rows any of them touches. Trace
// names must be distinct — the sweep keys its per-trace memoized
// baselines by name.
func LoadTraces(sc Scale, paths []string) ([]*trace.Trace, Scale, error) {
	if len(paths) == 0 {
		return nil, Scale{}, fmt.Errorf("sim: no trace files given")
	}
	traces := make([]*trace.Trace, len(paths))
	seen := make(map[string]string, len(paths))
	needBanks, needRows := 0, 0
	for i, path := range paths {
		tr, err := trace.LoadFile(path)
		if err != nil {
			return nil, Scale{}, fmt.Errorf("sim: %w", err)
		}
		if prev, dup := seen[tr.Name]; dup {
			return nil, Scale{}, fmt.Errorf("sim: traces %s and %s share the name %q (baselines are memoized per name)", prev, path, tr.Name)
		}
		seen[tr.Name] = path
		traces[i] = tr
		b, r := tr.Dims()
		needBanks, needRows = max(needBanks, b), max(needRows, r)
	}
	eff := sc
	eff.Geometry = TraceGeometry(sc, needBanks, needRows)
	return traces, eff, nil
}

// TraceSweepOpts replays recorded trace files through the counter-scheme
// grid: one Row per trace, one Cell per scheme, each against a memoized
// unprotected baseline of the same trace — the recorded-trace counterpart
// of NormalSweepOpts. All traces share one geometry (see LoadTraces), so
// one scheme line-up sized for that geometry serves the whole grid; the
// effective Scale is returned for reporting.
func TraceSweepOpts(sc Scale, trh int64, paths []string, opt Options) ([]Row, Scale, error) {
	traces, eff, err := LoadTraces(sc, paths)
	if err != nil {
		return nil, Scale{}, err
	}
	schemes, err := CounterSchemes(trh, eff)
	if err != nil {
		return nil, Scale{}, err
	}
	srcs := make([]source, len(traces))
	for i, tr := range traces {
		srcs[i] = source{name: tr.Name, gen: func() (trace.Generator, error) { return tr.Generator(), nil }}
	}
	rows, err := sweep(eff, trh, srcs, schemes, opt)
	if err != nil {
		return nil, Scale{}, err
	}
	return rows, eff, nil
}
