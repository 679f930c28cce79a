package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphene/internal/obs"
	"graphene/internal/sim"
	"graphene/internal/trace"
)

func runSweep(t *testing.T, f func(*csv.Writer) error) [][]string {
	t.Helper()
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := f(w); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := csv.NewReader(strings.NewReader(sb.String()))
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSweepK(t *testing.T) {
	rows := runSweep(t, func(w *csv.Writer) error { return sweepK(w, 50000) })
	if len(rows) != 11 { // header + k=1..10
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0] != "k" || rows[1][1] != "12500" || rows[2][2] != "81" {
		t.Errorf("unexpected rows: %v %v", rows[1], rows[2])
	}
}

func TestSweepTRH(t *testing.T) {
	rows := runSweep(t, sweepTRH)
	if len(rows) != 7 { // header + 6 thresholds
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1][0] != "50000" || rows[1][4] != "0.00145" {
		t.Errorf("50K row: %v", rows[1])
	}
}

func TestSweepDistance(t *testing.T) {
	rows := runSweep(t, func(w *csv.Writer) error { return sweepDistance(w, 50000) })
	if len(rows) != 17 { // header + 2 models × 8 distances
		t.Fatalf("%d rows", len(rows))
	}
	// Uniform model at n=2 doubles the amp factor.
	if rows[2][1] != "uniform" || rows[2][2] != "2.0000" {
		t.Errorf("uniform n=2 row: %v", rows[2])
	}
}

func TestSweepCBT(t *testing.T) {
	rows := runSweep(t, func(w *csv.Writer) error { return sweepCBT(w, 50000) })
	if len(rows) != 8 { // header + 64..4096
		t.Fatalf("%d rows", len(rows))
	}
	// CBT-128: 10 levels, burst 130 contiguous / 256 remapped.
	if rows[2][0] != "128" || rows[2][1] != "10" || rows[2][4] != "130" || rows[2][5] != "256" {
		t.Errorf("CBT-128 row: %v", rows[2])
	}
}

func TestTypedCell(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"true", true},
		{"false", false},
		{"50000", json.Number("50000")},
		{"0.00145", json.Number("0.00145")},
		{"-3.5e2", json.Number("-3.5e2")},
		{"uniform", "uniform"}, // plain text stays a string
		{"NaN", nil},           // non-finite floats become JSON null…
		{"nan", nil},
		{"+Inf", nil},
		{"-Inf", nil},
		{"Infinity", nil}, // …in every spelling ParseFloat accepts
		{"0x10", "0x10"},  // hex parses via ParseFloat, invalid JSON
		{"007", "007"},    // leading zeros are invalid JSON numbers
		{"inverse-square", "inverse-square"},
	}
	for _, c := range cases {
		if got := typedCell(c.in); got != c.want {
			t.Errorf("typedCell(%q) = %#v (%T), want %#v (%T)", c.in, got, got, c.want, c.want)
		}
	}
}

// decodeJSON decodes emitJSON output with UseNumber so numeric cells stay
// distinguishable from strings.
func decodeJSON(t *testing.T, f func(*csv.Writer) error) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := emitJSON(&buf, f); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var rows []map[string]any
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestEmitJSONTypesNumericColumns(t *testing.T) {
	rows := decodeJSON(t, func(w *csv.Writer) error { return sweepK(w, 50000) })
	if len(rows) != 10 { // k=1..10, header folded into keys
		t.Fatalf("%d rows", len(rows))
	}
	// Every sweepK column is numeric; none may come back as a string.
	for col, v := range rows[0] {
		if _, ok := v.(json.Number); !ok {
			t.Errorf("column %q = %#v (%T), want json.Number", col, v, v)
		}
	}
	if got := rows[0]["T"]; got != json.Number("12500") {
		t.Errorf("k=1 T = %#v, want 12500", got)
	}
	if n, ok := rows[1]["nentry"].(json.Number); !ok || n != "81" {
		t.Errorf("k=2 nentry = %#v, want 81", rows[1]["nentry"])
	}
}

func TestEmitJSONKeepsTextColumnsAsStrings(t *testing.T) {
	rows := decodeJSON(t, func(w *csv.Writer) error { return sweepDistance(w, 50000) })
	if len(rows) != 16 { // 2 models × 8 distances
		t.Fatalf("%d rows", len(rows))
	}
	if mu, ok := rows[0]["mu_model"].(string); !ok || mu != "uniform" {
		t.Errorf("mu_model = %#v, want the string \"uniform\"", rows[0]["mu_model"])
	}
	if _, ok := rows[1]["amp_factor"].(json.Number); !ok {
		t.Errorf("amp_factor = %#v (%T), want json.Number", rows[1]["amp_factor"], rows[1]["amp_factor"])
	}
}

// TestEmitJSONNonFiniteCells proves a sweep emitting NaN/Inf cells (e.g. a
// 0/0 overhead ratio) still encodes: the cells come back as JSON null, and
// the document round-trips through a strict decoder.
func TestEmitJSONNonFiniteCells(t *testing.T) {
	rows := decodeJSON(t, func(w *csv.Writer) error {
		if err := w.Write([]string{"scheme", "ratio", "peak"}); err != nil {
			return err
		}
		return w.Write([]string{"graphene", "NaN", "+Inf"})
	})
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0]["scheme"] != "graphene" {
		t.Errorf("scheme = %#v", rows[0]["scheme"])
	}
	if rows[0]["ratio"] != nil || rows[0]["peak"] != nil {
		t.Errorf("non-finite cells = %#v / %#v, want null", rows[0]["ratio"], rows[0]["peak"])
	}
}

func TestCBTLevelsMirrorsDefault(t *testing.T) {
	for counters, want := range map[int]int{64: 9, 128: 10, 256: 11, 4096: 15} {
		if got := cbtLevels(counters); got != want {
			t.Errorf("cbtLevels(%d) = %d, want %d", counters, got, want)
		}
	}
}

func TestSweepTrace(t *testing.T) {
	// -sweep trace replays recorded files (one text, one binary) through
	// the scheme grid; rows are keyed by the trace names.
	dir := t.TempDir()
	sc := sim.Quick()
	sc.WorkloadAccesses = 20_000
	sc.AdversarialWindows = 0.05
	sc.Seed = 1
	write := func(name, wl string, binary bool) string {
		gen, _, err := sim.BuildWorkload(wl, sc, 50000)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if binary {
			_, err = trace.WriteBinary(f, gen)
		} else {
			_, err = trace.WriteTo(f, gen)
		}
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	text := write("s3.trace", "S3", false)
	bin := write("s1.bin", "S1-10", true)

	o := quickOpts()
	o.traces = []string{text, bin}
	rows := runSweep(t, func(w *csv.Writer) error { return sweepTrace(w, o) })
	if len(rows) < 3 {
		t.Fatalf("only %d rows", len(rows))
	}
	if got := rows[0][0]; got != "workload" {
		t.Errorf("header starts with %q", got)
	}
	names := map[string]bool{}
	for _, r := range rows[1:] {
		names[r[0]] = true
	}
	if !names["S3"] || len(names) != 2 {
		t.Errorf("trace names in CSV: %v", names)
	}

	if err := sweepTrace(csv.NewWriter(&strings.Builder{}), quickOpts()); err == nil {
		t.Error("-sweep trace without -traces accepted")
	}
}

// TestRejectedFlagLeavesNoEmptyFiles runs the command with -metrics,
// -events and -cpuprofile and one flag value it rejects. It must exit 2
// and leave no 0-byte file behind: a metrics file that exists decodes as
// a snapshot. The test binary re-runs itself as rhsweep for each case.
func TestRejectedFlagLeavesNoEmptyFiles(t *testing.T) {
	if args, ok := os.LookupEnv("RHSWEEP_ARGS"); ok {
		os.Args = append([]string{"rhsweep"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	for _, bad := range [][]string{{"-faults", "bogus"}, {"-format", "xml"}} {
		dir := t.TempDir()
		mpath := filepath.Join(dir, "metrics.json")
		paths := []string{mpath, filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "cpu.pprof")}
		args := append([]string{"-metrics", paths[0], "-events", paths[1], "-cpuprofile", paths[2]}, bad...)
		cmd := exec.Command(os.Args[0], "-test.run=^TestRejectedFlagLeavesNoEmptyFiles$")
		cmd.Env = append(os.Environ(), "RHSWEEP_ARGS="+strings.Join(args, "\n"))
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2\n%s", bad, err, out)
		}
		for _, path := range paths {
			if fi, err := os.Stat(path); err == nil && fi.Size() == 0 {
				t.Errorf("%v left an empty %s", bad, filepath.Base(path))
			}
		}
		if b, err := os.ReadFile(mpath); err == nil {
			if err := json.Unmarshal(b, &obs.Snapshot{}); err != nil {
				t.Errorf("%v: metrics file is not a snapshot: %v", bad, err)
			}
		}
	}
}
