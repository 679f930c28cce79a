package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/mitigation"
	"graphene/internal/obs"
	"graphene/internal/sketch"
	"graphene/internal/trace"
	"graphene/internal/trr"
	"graphene/internal/workload"
)

// Golden differential harness for the Mitigator API migration.
//
// For every registered scheme factory — the sim registry plus the sketch
// trackers only the security harness builds — it replays one adversarial
// and one normal trace and serializes the full
// memctrl.Result together with the obs counter values and the (seq-freed,
// canonically sorted) event stream. The goldens under testdata/golden were
// recorded at the pre-migration commit; byte-identity here proves the
// append-style API changed no observable behaviour for any scheme.
//
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/sim -run TestGolden.

// goldenScale keeps the runs short enough for the regular test suite while
// still crossing several tREFI ticks and scheme trigger thresholds.
func goldenScale() Scale {
	return Scale{
		Geometry:           dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 64 * 1024},
		Timing:             dram.DDR4(),
		WorkloadAccesses:   20_000,
		AdversarialWindows: 0.1,
		Seed:               1,
	}
}

const goldenTRH = 12500

// goldenSchemes returns every scheme factory the differential harness
// pins, keyed by a filename-safe label. A nil factory is the unprotected
// replay core itself.
func goldenSchemes(t testing.TB, sc Scale) map[string]mitigation.Factory {
	t.Helper()
	rows := sc.Geometry.RowsPerBank
	out := map[string]mitigation.Factory{
		"none": nil,
		"trr":  trr.Factory(trr.Config{Rows: rows, Seed: 3}),
		"cms": func() (mitigation.Mitigator, error) {
			return sketch.NewCMS(sketch.CMSConfig{TRH: goldenTRH, Rows: rows, Timing: sc.Timing})
		},
		"spacesaving": func() (mitigation.Mitigator, error) {
			return sketch.NewSpaceSaving(sketch.SSConfig{TRH: goldenTRH, Rows: rows, Timing: sc.Timing})
		},
	}
	for _, name := range SchemeNames() {
		if _, pinned := out[name]; pinned {
			// none is the nil factory; trr keeps the engine its golden
			// files were recorded with.
			continue
		}
		f, _, err := BuildScheme(name, goldenTRH, 2, 1, rows, sc)
		if err != nil {
			t.Fatalf("BuildScheme(%s): %v", name, err)
		}
		out[name] = f
	}
	return out
}

// goldenWorkloads returns the two trace shapes the harness replays.
func goldenWorkloads(sc Scale) map[string]func() trace.Generator {
	rows := sc.Geometry.RowsPerBank
	total := int64(float64(sc.Timing.MaxACTs(sc.Timing.TREFW)) * sc.AdversarialWindows)
	return map[string]func() trace.Generator{
		"adversarial": func() trace.Generator { return workload.S1(0, rows, 10, total) },
		"normal": func() trace.Generator {
			prof, err := workload.ProfileByName("mcf")
			if err != nil {
				panic(err)
			}
			gen, err := prof.Generate(sc.Geometry, sc.Timing, sc.WorkloadAccesses, sc.Seed)
			if err != nil {
				panic(err)
			}
			return gen
		},
	}
}

// goldenRecord is the serialized shape of one run.
type goldenRecord struct {
	Result   memctrl.Result    `json:"result"`
	Counters map[string]int64  `json:"counters"`
	Events   []json.RawMessage `json:"events"`
}

// canonicalize makes the record deterministic across goroutine schedules:
// the global event sequence number is freed (per-bank goroutines race for
// it) and events are sorted by their full serialized content. Per-bank
// event content is deterministic, so the sorted stream is byte-stable.
func canonicalize(res memctrl.Result, rec *obs.Recorder, sink *obs.Collect) (goldenRecord, error) {
	// TopVictims ties are broken arbitrarily by the controller's sort;
	// re-sort with a total order.
	sort.Slice(res.TopVictims, func(i, j int) bool {
		a, b := res.TopVictims[i], res.TopVictims[j]
		if a.Disturbance != b.Disturbance {
			return a.Disturbance > b.Disturbance
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	counters := map[string]int64{}
	for _, name := range rec.CounterNames() {
		counters[name] = rec.Counter(name).Value()
	}
	var events []json.RawMessage
	for _, e := range sink.Events() {
		e.Seq = 0
		b, err := json.Marshal(e)
		if err != nil {
			return goldenRecord{}, err
		}
		events = append(events, b)
	}
	sort.Slice(events, func(i, j int) bool { return bytes.Compare(events[i], events[j]) < 0 })
	return goldenRecord{Result: res, Counters: counters, Events: events}, nil
}

func TestGoldenSchemeDifferential(t *testing.T) {
	sc := goldenScale()
	workloads := goldenWorkloads(sc)
	update := os.Getenv("UPDATE_GOLDEN") != ""

	var labels []string
	for label := range goldenSchemes(t, sc) {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var wls []string
	for wl := range workloads {
		wls = append(wls, wl)
	}
	sort.Strings(wls)

	for _, label := range labels {
		for _, wl := range wls {
			label, wl := label, wl
			t.Run(label+"/"+wl, func(t *testing.T) {
				t.Parallel()
				// A fresh factory set per subtest: the seeded factories
				// (TRR, PARA) advance a per-closure counter on every bank
				// build, so sharing one closure across parallel subtests
				// would make seeds depend on goroutine scheduling.
				factory := goldenSchemes(t, sc)[label]
				rec := obs.New()
				sink := &obs.Collect{}
				rec.SetSink(sink)
				res, err := memctrl.Run(memctrl.Config{
					Geometry: sc.Geometry, Timing: sc.Timing,
					Factory: factory,
					TRH:     goldenTRH,
					Obs:     rec,
				}, workloads[wl]())
				if err != nil {
					t.Fatal(err)
				}
				got, err := canonicalize(res, rec, sink)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.MarshalIndent(got, "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				raw = append(raw, '\n')

				path := filepath.Join("testdata", "golden", fmt.Sprintf("%s__%s.json", label, wl))
				if update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to record): %v", err)
				}
				if !bytes.Equal(raw, want) {
					t.Errorf("run diverged from pre-migration golden %s:\n got %d bytes, want %d bytes\n%s",
						path, len(raw), len(want), firstDiff(raw, want))
				}
			})
		}
	}
}

// firstDiff renders the first few differing lines for a readable failure.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return "one output is a prefix of the other"
}
