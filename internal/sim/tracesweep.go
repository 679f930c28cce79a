package sim

import (
	"fmt"

	"graphene/internal/dram"
	"graphene/internal/trace"
)

// LoadTraces reads recorded trace files (text or binary, auto-detected by
// magic) and returns them with a Scale whose geometry is the traces' own:
// one rank of as many banks as the traces touch (at least one, as
// `rhtrace -replay -banks 0` picks), each with sc's rows per bank (the
// device default's when sc has none) grown to the highest row any trace
// touches. A one-bank recording thus replays on one bank, whatever sc's
// bank count. Trace names must be distinct — the sweep keys its per-trace
// memoized baselines by name.
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
		if b > needBanks {
			needBanks = b
		}
		if r > needRows {
			needRows = r
		}
	}
	rowsPerBank := sc.Geometry.RowsPerBank
	if rowsPerBank == 0 {
		rowsPerBank = dram.Default().RowsPerBank
	}
	eff := sc
	eff.Geometry = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: max(needBanks, 1), RowsPerBank: max(rowsPerBank, needRows)}
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
