package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphene/internal/obs"
)

// summaryInt pulls the i-th integer out of the report line starting with
// prefix ("victim refreshes   411 commands, 1233 rows" → 411, 1233).
func summaryInt(t *testing.T, out, prefix string, i int) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var nums []int64
		for _, f := range strings.Fields(line) {
			if v, err := strconv.ParseInt(strings.TrimSuffix(f, ","), 10, 64); err == nil {
				nums = append(nums, v)
			}
		}
		if i >= len(nums) {
			t.Fatalf("line %q has %d integers, want index %d", line, len(nums), i)
		}
		return nums[i]
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return 0
}

// TestRunEventsMatchSummary is the CLI-level acceptance check: the event
// stream a -events run would carry has per-scheme NRR totals exactly
// matching the printed end-of-run summary.
func TestRunEventsMatchSummary(t *testing.T) {
	rec := obs.New()
	sink := &obs.Collect{}
	rec.SetSink(sink)
	var sb strings.Builder
	flipped, err := run(&sb, rec, options{
		workload: "S3", scheme: "graphene", trh: 2000,
		k: 2, distance: 1, acts: 10_000, windows: 0.3, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = flipped
	out := sb.String()

	wantCmds := summaryInt(t, out, "victim refreshes", 0)
	wantRows := summaryInt(t, out, "victim refreshes", 1)
	if wantCmds == 0 {
		t.Fatalf("fixture issued no NRRs; summary:\n%s", out)
	}

	// The baseline run shares the recorder but has no mitigator, so every
	// nrr event belongs to the protected scheme.
	var cmds, rows int64
	for _, e := range sink.ByKind(obs.KindNRR) {
		if !strings.HasPrefix(e.Scheme, "graphene") {
			t.Fatalf("nrr event from unexpected scheme: %+v", e)
		}
		cmds++
		rows += e.Value
	}
	if cmds != wantCmds || rows != wantRows {
		t.Errorf("events: %d commands / %d rows, summary: %d / %d", cmds, rows, wantCmds, wantRows)
	}

	// Graphene window/alert counters and events stay in lockstep too.
	kinds := sink.Kinds()
	if resets := rec.Counter("graphene_window_resets_total").Value(); kinds[obs.KindWindowReset] != resets {
		t.Errorf("window_reset events = %d, counter = %d", kinds[obs.KindWindowReset], resets)
	}
	if alerts := rec.Counter("graphene_spillover_alerts_total").Value(); kinds[obs.KindSpillAlert] != alerts {
		t.Errorf("spillover_alert events = %d, counter = %d", kinds[obs.KindSpillAlert], alerts)
	}

	// Both scheduler cells ran to completion under observation.
	if kinds[obs.KindCellStart] != 2 || kinds[obs.KindCellFinish] != 2 {
		t.Errorf("cell events = %d start / %d finish, want 2 / 2", kinds[obs.KindCellStart], kinds[obs.KindCellFinish])
	}
}

// TestRunWritesEventAndMetricsFiles drives the same path the -metrics and
// -events flags use: files come back as non-empty, valid JSON (lines), and
// the metrics snapshot agrees with the event stream.
func TestRunWritesEventAndMetricsFiles(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	epath := filepath.Join(dir, "events.jsonl")
	rec, _, stop, err := obs.Flags{Metrics: mpath, Events: epath}.Start()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := run(&sb, rec, options{
		workload: "S3", scheme: "graphene", trh: 2000,
		k: 2, distance: 1, acts: 5_000, windows: 0.2, seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	ef, err := os.Open(epath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	sc := bufio.NewScanner(ef)
	var nrrs int64
	lines := 0
	for sc.Scan() {
		lines++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("event line %d is not valid JSON: %v: %q", lines, err, sc.Text())
		}
		if e.Kind == obs.KindNRR {
			nrrs++
		}
	}
	if lines == 0 {
		t.Fatal("event file is empty")
	}

	mb, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["nrr_commands_total"] != nrrs {
		t.Errorf("snapshot nrr_commands_total = %d, event stream carried %d", snap.Counters["nrr_commands_total"], nrrs)
	}
	if snap.Counters["nrr_commands_total"] != summaryInt(t, sb.String(), "victim refreshes", 0) {
		t.Errorf("snapshot disagrees with printed summary")
	}
}

// TestRunDebugOnlyServesLiveMetrics drives the -pprof wiring with no
// -metrics or -events file: the Recorder is still live, so the debug
// endpoint's /metrics shows the counters the run incremented rather than
// an empty snapshot.
func TestRunDebugOnlyServesLiveMetrics(t *testing.T) {
	rec, addr, stop, err := obs.Flags{Pprof: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var sb strings.Builder
	if _, err := run(&sb, rec, options{
		workload: "S3", scheme: "graphene", trh: 2000,
		k: 2, distance: 1, acts: 5_000, windows: 0.2, seed: 1,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not a JSON snapshot: %v", err)
	}
	want := summaryInt(t, sb.String(), "victim refreshes", 0)
	if got := snap.Counters["nrr_commands_total"]; got == 0 || got != want {
		t.Errorf("/metrics nrr_commands_total = %d, summary printed %d (want equal and non-zero)", got, want)
	}
}
