package memctrl

import (
	"fmt"
	"strings"
	"testing"

	"graphene/internal/cbt"
	"graphene/internal/dram"
	"graphene/internal/graphene"
	"graphene/internal/remap"
	"graphene/internal/trace"
)

// The §II-C contiguity hazard, end to end: with the device remapping row
// addresses, CBT under its contiguity assumption refreshes the wrong
// physical rows and suffers false negatives, while CBT's remapped mode
// (per-row NRRs) and Graphene (NRR-only) stay sound.
func TestRemappingBreaksCBTContiguityAssumption(t *testing.T) {
	timing := smallTiming()
	const (
		rows = 1 << 12
		trh  = 2000
	)
	perm, err := remap.Permutation(rows, 11)
	if err != nil {
		t.Fatal(err)
	}
	geo := oneBank(rows)

	hammer := func() trace.Generator {
		var i int64
		return trace.FromFunc("hammer", func() (trace.Access, bool) {
			if i >= 150_000 {
				return trace.Access{}, false
			}
			i++
			return trace.Access{Bank: 0, Row: 600}, true
		})
	}

	// 1. CBT assuming contiguity on a remapped device: false negatives.
	naive, err := Run(Config{
		Geometry: geo, Timing: timing,
		Factory: cbt.Factory(cbt.Config{TRH: trh, Counters: 16, Rows: rows, Timing: timing}),
		TRH:     trh, Remap: perm,
	}, hammer())
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Flips) == 0 {
		t.Error("contiguity-assuming CBT survived remapping — the §II-C hazard did not manifest")
	}

	// 2. CBT in remapped mode (per-covered-row NRRs): sound again.
	aware, err := Run(Config{
		Geometry: geo, Timing: timing,
		Factory: cbt.Factory(cbt.Config{TRH: trh, Counters: 16, Rows: rows, Timing: timing, AssumeRemapped: true}),
		TRH:     trh, Remap: perm,
	}, hammer())
	if err != nil {
		t.Fatal(err)
	}
	if len(aware.Flips) != 0 {
		t.Errorf("remap-aware CBT flipped %d bits", len(aware.Flips))
	}
	// And it pays the doubled refresh cost the paper predicts.
	if aware.RowsVictim <= naive.RowsVictim {
		t.Errorf("remap-aware CBT refreshed %d rows vs naive %d; expected more", aware.RowsVictim, naive.RowsVictim)
	}

	// 3. Graphene's NRR-only refreshes resolve physical neighbors in the
	// device: remapping is invisible to its guarantee.
	g, err := Run(Config{
		Geometry: geo, Timing: timing,
		Factory: graphene.Factory(graphene.Config{TRH: trh, K: 2, Rows: rows, Timing: timing}),
		TRH:     trh, Remap: perm,
	}, hammer())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Flips) != 0 {
		t.Errorf("Graphene flipped %d bits under remapping", len(g.Flips))
	}
}

func TestRemapRejectsSizeMismatch(t *testing.T) {
	perm, err := remap.Permutation(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Geometry: oneBank(64), Timing: smallTiming(), Remap: perm},
		trace.FromSlice("x", nil))
	if err == nil {
		t.Error("accepted remapper/bank size mismatch")
	}
}

func TestXORRemapPreservesAccounting(t *testing.T) {
	// Remapping must not change how many rows get refreshed — only which.
	timing := smallTiming()
	xor, err := remap.XOR(1<<12, 0x155)
	if err != nil {
		t.Fatal(err)
	}
	var accs []trace.Access
	for i := 0; i < 50_000; i++ {
		accs = append(accs, trace.Access{Bank: 0, Row: 600})
	}
	factory := graphene.Factory(graphene.Config{TRH: 2000, K: 2, Rows: 1 << 12, Timing: timing})
	plain, err := Run(Config{Geometry: oneBank(1 << 12), Timing: timing, Factory: factory},
		trace.FromSlice("h", accs))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Run(Config{Geometry: oneBank(1 << 12), Timing: timing, Factory: factory, Remap: xor},
		trace.FromSlice("h", accs))
	if err != nil {
		t.Fatal(err)
	}
	if plain.RowsVictim != mapped.RowsVictim || plain.NRRCommands != mapped.NRRCommands {
		t.Errorf("remap changed refresh counts: %d/%d vs %d/%d",
			plain.NRRCommands, plain.RowsVictim, mapped.NRRCommands, mapped.RowsVictim)
	}
}

// badRemap is a remapper with a bug: it sends logical row bad one past the
// bank's last row.
type badRemap struct{ rows, bad int }

func (b badRemap) Name() string        { return "bad" }
func (b badRemap) Rows() int           { return b.rows }
func (b badRemap) ToLogical(p int) int { return p }
func (b badRemap) ToPhysical(r int) int {
	if r == b.bad {
		return b.rows
	}
	return r
}

// TestRemapOutOfRangeRowFailsReplay: a physical row outside the bank fails
// the replay with the activation's range error, whether the batch core
// translates the run for the oracle or only for the check (no oracle), with
// or without a scheme, and on the per-ACT reference path alike.
func TestRemapOutOfRangeRowFailsReplay(t *testing.T) {
	const rows = 64
	timing := smallTiming()
	accs := make([]trace.Access, 200)
	for i := range accs {
		accs[i] = trace.Access{Bank: 0, Row: i % rows, Gap: 50 * dram.Nanosecond}
	}
	const want = "activate row 64 out of range [0,64)"
	for _, trh := range []int64{0, 1000} {
		for _, scheme := range []bool{false, true} {
			cfg := Config{Geometry: oneBank(rows), Timing: timing, TRH: trh, Remap: badRemap{rows: rows, bad: 7}}
			if scheme {
				cfg.Factory = graphene.Factory(graphene.Config{TRH: 50000, K: 2, Rows: rows, Timing: timing})
			}
			name := fmt.Sprintf("trh=%d/scheme=%v", trh, scheme)
			if _, err := Run(cfg, trace.FromSlice("bad", accs)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Run err = %v, want %q", name, err, want)
			}
			if _, err := runBuffered(cfg, trace.FromSlice("bad", accs)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: runBuffered err = %v, want %q", name, err, want)
			}
		}
	}
}
