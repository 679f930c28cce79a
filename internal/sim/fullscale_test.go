package sim

import (
	"strings"
	"testing"

	"graphene/internal/dram"
	"graphene/internal/memctrl"
	"graphene/internal/workload"
)

// TestFullScalePaperConfiguration runs the paper's actual configuration —
// 64 banks of 64K rows, TRH 50K, full 64 ms adversarial windows — end to
// end. It is the closest this repository gets to the paper's own runs and
// takes tens of seconds, so it is skipped under -short.
func TestFullScalePaperConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run skipped with -short")
	}
	sc := Full()
	sc.WorkloadAccesses = 1_500_000

	// 1. A memory-intensive workload across the full 64-bank system:
	// Graphene must stay invisible (no refreshes, no slowdown, no flips).
	schemes, err := CounterSchemes(50000, sc)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SweepProfilesOpts(sc, 50000, pick(workload.Profiles(), "mcf"), schemes[:2], Options{}) // Graphene + TWiCe
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, c := range row.Cells {
			if c.VictimRows != 0 || c.Flips != 0 {
				t.Errorf("%s/%s at full scale: %d victim rows, %d flips", row.Workload, c.Scheme, c.VictimRows, c.Flips)
			}
		}
	}

	// 2. A full-window single-row hammer on one bank: the Fig. 8(b)
	// bound must hold at true scale, with zero flips against TRH 50K.
	oneBank := sc
	oneBank.Geometry = dram.Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 64 * 1024}
	acts := sc.Timing.MaxACTs(sc.Timing.TREFW)
	res, err := memctrl.Run(memctrl.Config{
		Geometry: oneBank.Geometry, Timing: sc.Timing,
		Factory: schemes[0].Factory(sc.Seed), TRH: 50000,
	}, workload.S3(0, 32768, acts))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 0 {
		t.Errorf("full-scale S3: %d flips", len(res.Flips))
	}
	if ov := res.RefreshOverhead(); ov > 0.0052 {
		t.Errorf("full-scale S3 overhead %.4f%% above the Fig. 6 k=2 bound 0.494%%+slack", 100*ov)
	}
	if !strings.HasPrefix(res.Scheme, "graphene") {
		t.Errorf("scheme = %q", res.Scheme)
	}

	// 3. The rotation worst case at full scale stays within the analytic
	// Fig. 6 bound.
	cell, err := RunAttack(oneBank, 50000, schemes[0], WorstCase(oneBank, 81))
	if err != nil {
		t.Fatal(err)
	}
	if cell.Flips != 0 {
		t.Errorf("full-scale worst case: %d flips", cell.Flips)
	}
	if cell.RefreshOverhead > 0.0052 {
		t.Errorf("full-scale worst case overhead %.4f%%", 100*cell.RefreshOverhead)
	}
}
