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

// encoder returns the trace writer for an output format, "text" or
// "binary". doRecord and doConvert call it before they build or decode a
// trace, so a rejected format fails at once and leaves an existing -o
// file as it was.
func encoder(format string) (func(io.Writer, trace.Generator) (int64, error), error) {
	switch format {
	case "text":
		return trace.WriteTo, nil
	case "binary":
		return trace.WriteBinary, nil
	}
	return nil, fmt.Errorf("unknown output format %q (want text, binary, or auto)", format)
}

// writeTrace writes gen to out (stdout when empty) with write and returns
// the access count.
func writeTrace(out string, write func(io.Writer, trace.Generator) (int64, error), gen trace.Generator) (int64, error) {
	if out == "" {
		return write(os.Stdout, gen)
	}
	f, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	n, err := write(f, gen)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func doRecord(name, out, format string, trh, acts int64, windows float64, seed int64) error {
	if format == "auto" {
		format = "text"
	}
	write, err := encoder(format)
	if err != nil {
		return err
	}
	sc := sim.Quick()
	sc.Seed = seed
	sc.WorkloadAccesses = acts
	sc.AdversarialWindows = windows
	gen, _, err := sim.BuildWorkload(name, sc, trh)
	if err != nil {
		return err
	}
	n, err := writeTrace(out, write, gen)
	if err != nil {
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
	if to == "auto" {
		to = "text"
		if from == "text" {
			to = "binary"
		}
	}
	write, err := encoder(to)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if from == "binary" {
		tr, err = trace.ReadBinary(src)
	} else {
		tr, err = trace.ReadAll(src, in)
	}
	if err != nil {
		return err
	}
	n, err := writeTrace(out, write, tr.Generator())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rhtrace: converted %s (%d accesses) %s -> %s\n", tr.Name, n, from, to)
	return nil
}

// doReplay runs a trace file through the simulator under one scheme, as
// rhsim -trace and rhsweep -sweep trace do: sim.LoadTraces loads it (text
// or binary, auto-detected) and sizes its geometry, one rank of the banks
// the trace touches with rows grown to its highest row.
func doReplay(path, scheme string, trh, seed int64) error {
	sc := sim.Quick()
	sc.Seed = seed
	srcs, eff, err := sim.LoadTraces(sc, []string{path})
	if err != nil {
		return err
	}
	geo := eff.Geometry
	factory, schemeName, err := sim.BuildScheme(scheme, trh, 2, 1, geo.RowsPerBank, eff)
	if err != nil {
		return err
	}
	res, err := srcs[0].Replay(memctrl.Config{Geometry: geo, Timing: eff.Timing, Factory: factory, TRH: trh})
	if err != nil {
		return err
	}
	fmt.Printf("trace              %s (%d accesses, %d banks)\n", srcs[0].Name, res.ACTs, geo.BanksPerRank)
	fmt.Printf("scheme             %s\n", schemeName)
	fmt.Printf("victim refreshes   %d commands, %d rows\n", res.NRRCommands, res.RowsVictim)
	fmt.Printf("refresh overhead   %s\n", stats.Pct(res.RefreshOverhead()))
	fmt.Printf("bit flips          %d\n", len(res.Flips))
	if len(res.Flips) > 0 {
		return fmt.Errorf("protection failed with %d bit flips", len(res.Flips))
	}
	return nil
}
