// Command rhtrace records workload/attack generators into trace files,
// converts between the text and binary trace formats, and replays trace
// files through the simulator — the glue for exchanging activation
// streams with other tools.
//
// Usage:
//
//	rhtrace -record S3 -o attack.trace -windows 0.1   # generator -> file
//	rhtrace -record mcf -acts 100000 -to binary -o mcf.bin
//	rhtrace -convert attack.trace -o attack.bin        # text <-> binary
//	rhtrace -replay attack.bin -scheme graphene        # file -> simulator
//
// Replay and convert auto-detect the input format by magic; -to picks the
// output format ("auto" converts to the opposite format and records text).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"graphene/internal/memctrl"
	"graphene/internal/sim"
	"graphene/internal/stats"
	"graphene/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "workload/attack name to record (see rhsim -workload)")
		convert = flag.String("convert", "", "trace file to convert (format auto-detected)")
		out     = flag.String("o", "", "output trace file for -record/-convert (default stdout)")
		to      = flag.String("to", "auto", "output format: text, binary, or auto (convert: opposite of input; record: text)")
		replay  = flag.String("replay", "", "trace file to replay (text or binary)")
		scheme  = flag.String("scheme", "graphene", "scheme for -replay (see rhsim -scheme)")
		trh     = flag.Int64("trh", 50000, "Row Hammer threshold")
		acts    = flag.Int64("acts", 200_000, "trace length for profile workloads")
		windows = flag.Float64("windows", 0.1, "refresh windows for attack patterns")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	modes := 0
	for _, m := range []string{*record, *convert, *replay} {
		if m != "" {
			modes++
		}
	}
	switch {
	case modes > 1:
		fmt.Fprintln(os.Stderr, "rhtrace: -record, -convert, and -replay are mutually exclusive")
		os.Exit(2)
	case *record != "":
		if err := doRecord(*record, *out, *to, *trh, *acts, *windows, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	case *convert != "":
		if err := doConvert(*convert, *out, *to); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *scheme, *trh, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rhtrace:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeTrace serializes gen to w in the requested format ("text" or
// "binary") and returns the access count.
func writeTrace(w io.Writer, gen trace.Generator, format string) (int64, error) {
	switch format {
	case "text":
		return trace.WriteTo(w, gen)
	case "binary":
		return trace.WriteBinary(w, gen)
	default:
		return 0, fmt.Errorf("unknown output format %q (want text, binary, or auto)", format)
	}
}

// openOut resolves the -o flag: stdout when empty, else a created file.
func openOut(out string) (io.Writer, func() error, error) {
	if out == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func doRecord(name, out, format string, trh, acts int64, windows float64, seed int64) error {
	if format == "auto" {
		format = "text"
	}
	sc := sim.Quick()
	sc.Seed = seed
	sc.WorkloadAccesses = acts
	sc.AdversarialWindows = windows
	gen, _, err := sim.BuildWorkload(name, sc, trh)
	if err != nil {
		return err
	}
	w, done, err := openOut(out)
	if err != nil {
		return err
	}
	n, err := writeTrace(w, gen, format)
	if err != nil {
		done()
		return err
	}
	if err := done(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhtrace: recorded %d accesses of %s (%s)\n", n, name, format)
	return nil
}

// doConvert reads a trace in either format and rewrites it in the
// requested one. "auto" flips the format: a text input becomes binary and
// vice versa, so `rhtrace -convert f -o g` round-trips without flags.
func doConvert(in, out, to string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	src := bufio.NewReader(f)
	from := "text"
	if trace.IsBinary(src) {
		from = "binary"
	}
	tr, err := trace.ReadAuto(src, in)
	if err != nil {
		return err
	}
	if to == "auto" {
		to = "text"
		if from == "text" {
			to = "binary"
		}
	}
	w, done, err := openOut(out)
	if err != nil {
		return err
	}
	n, err := writeTrace(w, tr.Generator(), to)
	if err != nil {
		done()
		return err
	}
	if err := done(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhtrace: converted %s (%d accesses) %s -> %s\n", tr.Name, n, from, to)
	return nil
}

// doReplay runs a trace file through the simulator under one scheme, on
// the geometry rhsim -trace and rhsweep -sweep trace give it: one rank of
// the banks the trace touches, rows grown to its highest row
// (sim.TraceGeometry). The format is auto-detected. A text trace is
// parsed once, and that one in-memory pass both sizes the geometry and
// feeds the replay. A binary trace names its banks in the header but not
// its rows, so it streams block-direct into the bank-parallel replay path
// on the default rows per bank, and the file is decoded once. Only a trace
// that touches a row beyond them is read again: rowBound stops that replay
// with the rows the trace needs, and the file is replayed from its start
// on those rows, which needs a file that can seek.
func doReplay(path, scheme string, trh, seed int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := sim.Quick()
	sc.Seed = seed
	replay := func(name string, naccs int64, banks, rows int, run func(memctrl.Config) (memctrl.Result, error)) error {
		geo := sim.TraceGeometry(sc, banks, rows)
		factory, schemeName, err := sim.BuildScheme(scheme, trh, 2, 1, geo.RowsPerBank, sc)
		if err != nil {
			return err
		}
		res, err := run(memctrl.Config{
			Geometry: geo, Timing: sc.Timing, Factory: factory, TRH: trh,
		})
		if err != nil {
			return err
		}
		fmt.Printf("trace              %s (%d accesses, %d banks)\n", name, naccs, geo.BanksPerRank)
		fmt.Printf("scheme             %s\n", schemeName)
		fmt.Printf("victim refreshes   %d commands, %d rows\n", res.NRRCommands, res.RowsVictim)
		fmt.Printf("refresh overhead   %s\n", stats.Pct(res.RefreshOverhead()))
		fmt.Printf("bit flips          %d\n", len(res.Flips))
		if len(res.Flips) > 0 {
			return fmt.Errorf("protection failed with %d bit flips", len(res.Flips))
		}
		return nil
	}

	src := bufio.NewReader(f)
	br, err := trace.NewBlockReader(src)
	switch {
	case err == nil:
		err = replay(br.Name(), br.Total(), br.Banks(), 0, func(cfg memctrl.Config) (memctrl.Result, error) {
			return memctrl.RunBlocks(cfg, &rowBound{BlockReader: br, rows: cfg.Geometry.RowsPerBank})
		})
		var need rowsBeyond
		if !errors.As(err, &need) {
			return err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("%w; replaying it on more rows needs a file that can seek: %w", need, err)
		}
		if br, err = trace.NewBlockReader(bufio.NewReader(f)); err != nil {
			return err
		}
		return replay(br.Name(), br.Total(), br.Banks(), int(need), func(cfg memctrl.Config) (memctrl.Result, error) {
			return memctrl.RunBlocks(cfg, br)
		})
	case errors.Is(err, trace.ErrNotBinary):
		tr, err := trace.ReadAll(src, path)
		if err != nil {
			return err
		}
		banks, rows := tr.Dims()
		return replay(tr.Name, int64(len(tr.Accs)), banks, rows, func(cfg memctrl.Config) (memctrl.Result, error) {
			return memctrl.Run(cfg, tr.Generator())
		})
	default:
		return err
	}
}

// rowBound is a binary trace streamed into a replay on rows rows per
// bank. At the first block that touches a row beyond them it decodes the
// rest of the trace and fails with rowsBeyond, the rows the whole trace
// needs: every block before that one fits in rows.
type rowBound struct {
	*trace.BlockReader
	rows int
}

// rowsBeyond is the rows per bank a trace needs, one past its highest
// row, when that is more than its replay was started on.
type rowsBeyond int

func (n rowsBeyond) Error() string {
	return fmt.Sprintf("trace touches row %d, beyond the default rows per bank", int(n)-1)
}

func (b *rowBound) NextCols(buf trace.ColBlock) (trace.ColBlock, error) {
	blk, err := b.BlockReader.NextCols(buf)
	need := b.rows
	for err == nil {
		for _, r := range blk.Rows {
			need = max(need, int(r)+1)
		}
		if need == b.rows {
			return blk, nil
		}
		blk, err = b.BlockReader.NextCols(blk)
	}
	if err == io.EOF && need > b.rows {
		err = rowsBeyond(need)
	}
	return blk, err
}
