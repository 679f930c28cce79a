package graphene

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"graphene/internal/dram"
	grapheneimpl "graphene/internal/graphene"
	"graphene/internal/memctrl"
	"graphene/internal/obs"
	"graphene/internal/workload"
)

// TestObsSmoke is the `make bench-obs` target: a short replay on the
// paper's full-scale Table III geometry with metrics and events enabled
// through the same file plumbing the -metrics/-events CLI flags use. It
// asserts the event stream is non-empty, every line is valid JSON, and
// the stream's NRR total agrees with both the metrics snapshot and the
// simulation result.
func TestObsSmoke(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	epath := filepath.Join(dir, "events.jsonl")
	rec, _, closeObs, err := obs.Flags{Metrics: mpath, Events: epath}.Start()
	if err != nil {
		t.Fatal(err)
	}

	geo := dram.Default() // Table III full-scale geometry
	timing := dram.DDR4()
	const trh = 2000 // low threshold so a short trace still triggers NRRs
	cfg := memctrl.Config{
		Geometry: geo, Timing: timing,
		Factory: grapheneimpl.Factory(grapheneimpl.Config{TRH: trh, K: 2, Rows: geo.RowsPerBank, Timing: timing}),
		TRH:     trh,
		Obs:     rec,
	}
	res, err := memctrl.Run(cfg, workload.S1(0, geo.RowsPerBank, 10, 60_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	if res.NRRCommands == 0 {
		t.Fatal("smoke replay issued no NRRs; the stream check below would be vacuous")
	}

	ef, err := os.Open(epath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	sc := bufio.NewScanner(ef)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var lines, nrrs, lastSeq int64
	for sc.Scan() {
		lines++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("event line %d is not valid JSON: %v: %q", lines, err, sc.Text())
		}
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not increasing at line %d: %d after %d", lines, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Kind == obs.KindNRR {
			nrrs++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("event stream is empty")
	}
	if nrrs != res.NRRCommands {
		t.Errorf("stream carried %d nrr events, result reports %d commands", nrrs, res.NRRCommands)
	}

	mb, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["nrr_commands_total"] != res.NRRCommands {
		t.Errorf("snapshot nrr_commands_total = %d, want %d", snap.Counters["nrr_commands_total"], res.NRRCommands)
	}
	if snap.Counters["victim_rows_total"] != res.RowsVictim {
		t.Errorf("snapshot victim_rows_total = %d, want %d", snap.Counters["victim_rows_total"], res.RowsVictim)
	}
	if snap.Events != lastSeq {
		t.Errorf("snapshot events_emitted = %d, last stream seq = %d", snap.Events, lastSeq)
	}
	if h, ok := snap.Histograms["acts_between_nrrs"]; !ok || h.Count == 0 {
		t.Errorf("acts_between_nrrs histogram missing or empty: %+v", h)
	}
}
