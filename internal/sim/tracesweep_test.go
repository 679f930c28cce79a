package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/trace"
	"graphene/internal/workload"
)

// writeTraceFile records gen into dir in the requested format and returns
// the file path.
func writeTraceFile(t *testing.T, dir, name string, gen trace.Generator, binary bool) string {
	t.Helper()
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

// TestTraceSweepMixedFormats sweeps one text and one binary trace file
// through the scheme grid and checks the rows line up with the trace
// names, regardless of on-disk format.
func TestTraceSweepMixedFormats(t *testing.T) {
	sc := fastScale()
	dir := t.TempDir()
	rows := sc.Geometry.RowsPerBank
	text := writeTraceFile(t, dir, "attack.trace", workload.S1(0, rows, 10, 20_000), false)
	bin := writeTraceFile(t, dir, "attack.bin", workload.S3(0, rows/2, 20_000), true)

	got, eff, err := TraceSweepOpts(sc, 50_000, []string{text, bin}, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both recordings touch bank 0 only, so they replay on one bank of
	// sc's rows, not on sc's two banks.
	if want := (dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: rows}); eff.Geometry != want {
		t.Errorf("geometry %+v, want %+v", eff.Geometry, want)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	for i, wantName := range []string{"S1_d10", "S3"} {
		if !strings.HasPrefix(got[i].Workload, wantName[:2]) {
			t.Errorf("row %d workload = %q", i, got[i].Workload)
		}
		if len(got[i].Cells) == 0 {
			t.Fatalf("row %d has no cells", i)
		}
		for _, c := range got[i].Cells {
			if c.Scheme == "" {
				t.Errorf("row %d has an unlabeled cell", i)
			}
		}
	}

	// Same sweep serially: the pool must not change results.
	serial, _, err := TraceSweepOpts(sc, 50_000, []string{text, bin}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("-jobs 4 and -jobs 1 trace sweeps diverge:\n jobs=4: %+v\n jobs=1: %+v", got, serial)
	}
}

// TestLoadTracesGrowsGeometry: a trace touching more rows/banks than the
// Scale's geometry must grow the effective geometry to exactly the banks
// it touches and at least its rows, and duplicate trace names must be
// rejected.
func TestLoadTracesGrowsGeometry(t *testing.T) {
	sc := fastScale()
	dir := t.TempDir()
	big := []trace.Access{
		{Bank: sc.Geometry.Banks() + 2, Row: sc.Geometry.RowsPerBank + 100, Gap: 5},
		{Bank: 0, Row: 3, Gap: 0},
	}
	path := writeTraceFile(t, dir, "big.bin", trace.FromSlice("big", big), true)

	_, eff, err := LoadTraces(sc, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Geometry.Banks() != sc.Geometry.Banks()+3 {
		t.Errorf("banks = %d, want %d", eff.Geometry.Banks(), sc.Geometry.Banks()+3)
	}
	if eff.Geometry.RowsPerBank < sc.Geometry.RowsPerBank+101 {
		t.Errorf("rows = %d, want ≥ %d", eff.Geometry.RowsPerBank, sc.Geometry.RowsPerBank+101)
	}

	dup := writeTraceFile(t, dir, "big2.bin", trace.FromSlice("big", big), true)
	if _, _, err := LoadTraces(sc, []string{path, dup}); err == nil || !strings.Contains(err.Error(), "share the name") {
		t.Errorf("duplicate names accepted: %v", err)
	}

	if _, _, err := LoadTraces(sc, nil); err == nil {
		t.Error("empty path list accepted")
	}
}

// TestLoadTracesDefaultGeometry: a zero-geometry Scale takes the device
// default's rows per bank, and the trace's own bank count.
func TestLoadTracesDefaultGeometry(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceFile(t, dir, "small.bin", trace.FromSlice("small", []trace.Access{{Bank: 0, Row: 1}}), true)
	_, eff, err := LoadTraces(Scale{}, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if want := (dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: dram.Default().RowsPerBank}); eff.Geometry != want {
		t.Errorf("geometry = %+v, want %+v", eff.Geometry, want)
	}
}

// TestLoadTracesKeepsBinaryEncoded: LoadTraces holds a binary recording
// as its encoded bytes (mcf encodes at about 5.6 B per access), not as the
// decoded 32-byte accesses, so after a collection it keeps under 8 B of
// live heap per access.
func TestLoadTracesKeepsBinaryEncoded(t *testing.T) {
	if testing.Short() {
		t.Skip("records and loads 1Mi accesses")
	}
	sc := testScale()
	const n = 1 << 20
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := prof.Generate(sc.Geometry, sc.Timing, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTraceFile(t, t.TempDir(), "mcf.bin", gen, true)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srcs, _, err := LoadTraces(sc, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srcs)
	perAcc := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("LoadTraces keeps %.2f B of live heap per access", perAcc)
	if perAcc >= 8 {
		t.Errorf("LoadTraces keeps %.1f B of live heap per access, want < 8", perAcc)
	}
}

// TestTraceSweepRowpressMatchesBuildScheme: with Scale.Rowpress set, each
// counter cell of a trace sweep over a RowPress-double trace must be the
// Result memctrl.Run gives under BuildScheme's factory — the one rhsim
// replays with — so the sweep's trackers weigh open-row dwell exactly as
// rhsim's do.
func TestTraceSweepRowpressMatchesBuildScheme(t *testing.T) {
	sc := fastScale()
	sc.Rowpress = true
	const trh = 12_500
	gen, _, err := BuildWorkload("rowpress-double", sc, trh)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTraceFile(t, t.TempDir(), "rowpress-double.bin", gen, true)
	rows, eff, err := TraceSweepOpts(sc, trh, []string{path}, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	run := func(f mitigation.Factory, trh int64) memctrl.Result {
		t.Helper()
		res, err := memctrl.Run(memctrl.Config{Geometry: eff.Geometry, Timing: eff.Timing, Factory: f, TRH: trh}, tr.Generator())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil, 0)
	schemes := []string{"graphene", "twice", "cbt", "para"}
	if len(rows) != 1 || len(rows[0].Cells) != len(schemes) {
		t.Fatalf("sweep shape %+v, want one row of %d cells", rows, len(schemes))
	}
	for i, name := range schemes {
		f, _, err := BuildScheme(name, trh, 2, 1, eff.Geometry.RowsPerBank, eff)
		if err != nil {
			t.Fatal(err)
		}
		res := run(f, trh)
		got := rows[0].Cells[i]
		want := Cell{
			Scheme:          got.Scheme,
			RefreshOverhead: res.RefreshOverhead(),
			Slowdown:        res.SlowdownVs(base),
			VictimRows:      res.RowsVictim,
			NRRCommands:     res.NRRCommands,
			Flips:           len(res.Flips),
		}
		if got != want {
			t.Errorf("%s: sweep cell %+v, want BuildScheme's %+v", name, got, want)
		}
	}
}
