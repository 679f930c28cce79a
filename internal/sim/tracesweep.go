package sim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
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

// LoadTraces loads recorded trace files (text or binary, auto-detected by
// magic) as Sources and returns them with a Scale whose geometry is the
// traces' own, the TraceGeometry of the most banks and rows any of them
// touches. Trace names must be distinct — the sweep keys its per-trace
// memoized baselines by name.
//
// A binary trace is held as its encoded bytes, a few bytes per access,
// and every replay streams them block-direct through memctrl.RunBlocks. A
// text trace is parsed once and replays through memctrl.Run. Either way
// the whole file is decoded here, so a malformed trace fails LoadTraces,
// not a replay.
func LoadTraces(sc Scale, paths []string) ([]Source, Scale, error) {
	if len(paths) == 0 {
		return nil, Scale{}, fmt.Errorf("sim: no trace files given")
	}
	srcs := make([]Source, len(paths))
	seen := make(map[string]string, len(paths))
	needBanks, needRows := 0, 0
	for i, path := range paths {
		src, banks, rows, err := loadTrace(path)
		if err != nil {
			return nil, Scale{}, fmt.Errorf("sim: %w", err)
		}
		if prev, dup := seen[src.Name]; dup {
			return nil, Scale{}, fmt.Errorf("sim: traces %s and %s share the name %q (baselines are memoized per name)", prev, path, src.Name)
		}
		seen[src.Name] = path
		srcs[i] = src
		needBanks, needRows = max(needBanks, banks), max(needRows, rows)
	}
	eff := sc
	eff.Geometry = TraceGeometry(sc, needBanks, needRows)
	return srcs, eff, nil
}

// loadTrace loads one trace file as a Source and returns the banks and
// rows it touches (highest index + 1). The fallback name of a headerless
// text trace is the file's base name.
func loadTrace(path string) (src Source, banks, rows int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Source{}, 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if !trace.IsBinary(r) {
		tr, err := trace.ReadAll(r, filepath.Base(path))
		if err != nil {
			return Source{}, 0, 0, err
		}
		banks, rows = tr.Dims()
		return Source{Name: tr.Name, Replay: func(cfg memctrl.Config) (memctrl.Result, error) {
			return memctrl.Run(cfg, tr.Generator())
		}}, banks, rows, nil
	}

	// Read into a buffer the file's size, so the bytes kept are the file.
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return Source{}, 0, 0, err
	}
	data := buf.Bytes()
	br, err := trace.NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return Source{}, 0, 0, err
	}
	var blk trace.ColBlock
	for {
		if blk, err = br.NextCols(blk); err == io.EOF {
			break
		} else if err != nil {
			return Source{}, 0, 0, err
		}
		banks = max(banks, blk.Bank+1)
		for _, row := range blk.Rows {
			rows = max(rows, int(row)+1)
		}
	}
	return Source{Name: br.Name(), Replay: func(cfg memctrl.Config) (memctrl.Result, error) {
		br, err := trace.NewBlockReader(bytes.NewReader(data))
		if err != nil {
			return memctrl.Result{}, err
		}
		return memctrl.RunBlocks(cfg, br)
	}}, banks, rows, nil
}

// TraceSweepOpts replays recorded trace files through the counter-scheme
// grid: one Row per trace, one Cell per scheme, each against a memoized
// unprotected baseline of the same trace — the recorded-trace counterpart
// of NormalSweepOpts. All traces share one geometry (see LoadTraces), so
// one scheme line-up sized for that geometry serves the whole grid; the
// effective Scale is returned for reporting.
func TraceSweepOpts(sc Scale, trh int64, paths []string, opt Options) ([]Row, Scale, error) {
	srcs, eff, err := LoadTraces(sc, paths)
	if err != nil {
		return nil, Scale{}, err
	}
	schemes, err := CounterSchemes(trh, eff)
	if err != nil {
		return nil, Scale{}, err
	}
	rows, err := sweep(eff, trh, srcs, schemes, opt)
	if err != nil {
		return nil, Scale{}, err
	}
	return rows, eff, nil
}
