package hammer

import (
	"math"
	"testing"
	"testing/quick"

	"graphene/internal/mitigation"
)

func mustOracle(t *testing.T, rows int, trh int64, dist int, mu mitigation.MuModel) *Oracle {
	t.Helper()
	o, err := NewOracle(rows, trh, dist, mu)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	return o
}

func TestNewOracleRejectsBadArgs(t *testing.T) {
	if _, err := NewOracle(0, 100, 1, nil); err == nil {
		t.Error("accepted 0 rows")
	}
	// One row past what AppendActivateRun's int32 column can address.
	if _, err := NewOracle(math.MaxInt32+2, 100, 1, nil); err == nil {
		t.Error("accepted 2³¹+1 rows")
	}
	if _, err := NewOracle(16, 0, 1, nil); err == nil {
		t.Error("accepted TRH 0")
	}
	if _, err := NewOracle(16, 100, 0, nil); err == nil {
		t.Error("accepted distance 0")
	}
	if _, err := NewOracle(16, 100, 2, func(i int) float64 { return 2 }); err == nil {
		t.Error("accepted invalid μ")
	}
}

func TestSingleSidedFlipAtExactThreshold(t *testing.T) {
	o := mustOracle(t, 64, 100, 1, nil)
	var flips []Flip
	for i := 0; i < 100; i++ {
		flips = append(flips, o.AppendActivate(nil, 10, 0)...)
	}
	if len(flips) != 2 {
		t.Fatalf("got %d flips, want 2 (rows 9 and 11)", len(flips))
	}
	victims := map[int]bool{flips[0].Victim: true, flips[1].Victim: true}
	if !victims[9] || !victims[11] {
		t.Errorf("flipped %v, want rows 9 and 11", victims)
	}
	// The flip fires exactly at the TRH-th ACT, not before.
	o.Reset()
	for i := 0; i < 99; i++ {
		if f := o.AppendActivate(nil, 10, 0); len(f) != 0 {
			t.Fatalf("flip fired at ACT %d, want none before 100", i+1)
		}
	}
	if f := o.AppendActivate(nil, 10, 0); len(f) != 2 {
		t.Fatalf("flip did not fire at the 100th ACT: %v", f)
	}
}

func TestDoubleSidedHalvesPerAggressorBudget(t *testing.T) {
	// §III-B: two aggressors hammering one victim from both sides need
	// only TRH/2 ACTs each.
	o := mustOracle(t, 64, 100, 1, nil)
	var flips []Flip
	for i := 0; i < 50; i++ {
		if flips = o.AppendActivate(flips, 9, 0); len(flips) != 0 && i < 49 {
			t.Fatalf("premature flip at pair %d", i)
		}
		flips = o.AppendActivate(flips, 11, 0)
	}
	if o.Disturbance(10) != 100 {
		t.Errorf("victim disturbance = %g, want 100", o.Disturbance(10))
	}
	if len(flips) == 0 {
		t.Error("double-sided hammering with TRH/2 per side did not flip")
	}
}

func TestRefreshClearsDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 100, 1, nil)
	var flips []Flip
	for i := 0; i < 99; i++ {
		flips = o.AppendActivate(flips, 10, 0)
	}
	o.RefreshRow(9)
	o.RefreshRow(11)
	for i := 0; i < 99; i++ {
		if f := o.AppendActivate(nil, 10, 0); len(f) != 0 {
			t.Fatalf("flip after refresh at ACT %d", i)
		}
	}
	if len(flips) != 0 {
		t.Errorf("flips = %d, want 0", len(flips))
	}
}

func TestFlipLatchReportsOncePerRefresh(t *testing.T) {
	o := mustOracle(t, 64, 10, 1, nil)
	var total int
	for i := 0; i < 30; i++ {
		total += len(o.AppendActivate(nil, 10, 0))
	}
	if total != 2 { // one per victim, latched afterwards
		t.Errorf("reported %d flips, want 2 (latched)", total)
	}
	o.RefreshRow(9)
	for i := 0; i < 10; i++ {
		total += len(o.AppendActivate(nil, 10, 0))
	}
	if total != 3 {
		t.Errorf("after refresh, total = %d, want 3", total)
	}
}

func TestNonAdjacentDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 100, 3, mitigation.InverseSquareMu)
	o.AppendActivate(nil, 10, 0)
	cases := []struct {
		row  int
		want float64
	}{
		{9, 1}, {11, 1},
		{8, 0.25}, {12, 0.25},
		{7, 1.0 / 9}, {13, 1.0 / 9},
		{6, 0}, {14, 0},
	}
	for _, tc := range cases {
		if got := o.Disturbance(tc.row); got != tc.want {
			t.Errorf("disturbance(%d) = %g, want %g", tc.row, got, tc.want)
		}
	}
}

func TestEdgeRowsHaveOneNeighbor(t *testing.T) {
	o := mustOracle(t, 8, 10, 1, nil)
	var flips []Flip
	for i := 0; i < 10; i++ {
		flips = o.AppendActivate(flips, 0, 0)
	}
	if len(flips) != 1 {
		t.Fatalf("edge aggressor flipped %d victims, want 1 (row 1)", len(flips))
	}
	if flips[0].Victim != 1 {
		t.Errorf("victim = %d, want 1", flips[0].Victim)
	}
}

func TestMaxDisturbance(t *testing.T) {
	o := mustOracle(t, 64, 1000, 1, nil)
	for i := 0; i < 7; i++ {
		o.AppendActivate(nil, 20, 0)
	}
	o.AppendActivate(nil, 30, 0)
	row, d := o.MaxDisturbance()
	if d != 7 || (row != 19 && row != 21) {
		t.Errorf("MaxDisturbance = row %d, %g; want row 19 or 21 with 7", row, d)
	}
}

func TestResetClearsEverything(t *testing.T) {
	o := mustOracle(t, 16, 5, 1, nil)
	var flips []Flip
	for i := 0; i < 10; i++ {
		flips = o.AppendActivate(flips, 8, 0)
	}
	if len(flips) != 2 {
		t.Fatalf("flips before Reset = %d, want 2 (rows 7 and 9)", len(flips))
	}
	o.Reset()
	if o.ACTs() != 0 {
		t.Errorf("Reset left acts %d", o.ACTs())
	}
	if _, d := o.MaxDisturbance(); d != 0 {
		t.Errorf("Reset left disturbance %g", d)
	}
	// Reset released both latches: the same hammering flips both again.
	flips = flips[:0]
	for i := 0; i < 5; i++ {
		flips = o.AppendActivate(flips, 8, 0)
	}
	if len(flips) != 2 {
		t.Errorf("flips after Reset = %d, want 2 (latches released)", len(flips))
	}
}

func TestQuickDisturbanceConservation(t *testing.T) {
	// Property: with uniform μ and ±1, total disturbance equals
	// 2·ACTs − (ACTs on edge rows) when nothing is refreshed.
	f := func(seed int64, n uint8) bool {
		rows := 32
		o, err := NewOracle(rows, 1<<40, 1, nil)
		if err != nil {
			return false
		}
		acts := int(n)
		edge := 0
		r := seed
		for i := 0; i < acts; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			row := int(uint64(r) % uint64(rows))
			if row == 0 || row == rows-1 {
				edge++
			}
			o.AppendActivate(nil, row, 0)
		}
		var total float64
		for i := 0; i < rows; i++ {
			total += o.Disturbance(i)
		}
		return total == float64(2*acts-edge)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopVictims(t *testing.T) {
	o := mustOracle(t, 64, 1<<40, 1, nil)
	for i := 0; i < 9; i++ {
		o.AppendActivate(nil, 20, 0) // victims 19, 21 at 9 each
	}
	for i := 0; i < 4; i++ {
		o.AppendActivate(nil, 40, 0) // victims 39, 41 at 4 each
	}
	top := o.TopVictims(3)
	if len(top) != 3 {
		t.Fatalf("got %d victims, want 3", len(top))
	}
	if top[0].Disturbance != 9 || top[1].Disturbance != 9 {
		t.Errorf("top two = %+v, want the 9s", top[:2])
	}
	if top[2].Disturbance != 4 {
		t.Errorf("third = %+v, want a 4", top[2])
	}
	if got := o.TopVictims(0); got != nil {
		t.Errorf("TopVictims(0) = %v", got)
	}
	if got := o.TopVictims(100); len(got) != 4 {
		t.Errorf("TopVictims(100) returned %d rows, want the 4 disturbed", len(got))
	}
}

func TestAppendActivateOpenWeighting(t *testing.T) {
	// With nRAS set, a dwell of k·nRAS adds weight k; dwell 0 and
	// dwell == nRAS both add exactly 1.
	o := mustOracle(t, 16, 10, 1, nil)
	o.SetNRAS(100)
	o.AppendActivateOpen(nil, 8, 0, 0)
	if d := o.Disturbance(7); d != 1 {
		t.Errorf("dwell 0 weight = %v, want 1", d)
	}
	o.AppendActivateOpen(nil, 8, 1, 100)
	if d := o.Disturbance(7); d != 2 {
		t.Errorf("dwell nRAS added %v, want 1", d-1)
	}
	o.AppendActivateOpen(nil, 8, 2, 350)
	if d := o.Disturbance(7); d != 5.5 {
		t.Errorf("dwell 3.5·nRAS brought disturbance to %v, want 5.5", d)
	}
	// Without SetNRAS, dwell is ignored entirely.
	o2 := mustOracle(t, 16, 10, 1, nil)
	o2.AppendActivateOpen(nil, 8, 0, 1<<40)
	if d := o2.Disturbance(7); d != 1 {
		t.Errorf("unconfigured nRAS weighted dwell: %v, want 1", d)
	}
}

func TestRefreshAtFlipTickNoDoubleReport(t *testing.T) {
	// Regression: under the fractional-increment model a victim can flip
	// and be refreshed within the same tick's episode. The latch must
	// survive a refresh at exactly the flip tick so residual same-tick
	// ACTs cannot re-report the flip; a strictly later refresh clears it.
	o := mustOracle(t, 16, 2, 1, nil)
	o.SetNRAS(100)
	const tick = 1000
	flips := o.AppendActivateOpen(nil, 8, tick, 250) // weight 2.5 ≥ TRH on both neighbors
	if len(flips) != 2 {
		t.Fatalf("flips = %v, want victims 7 and 9", flips)
	}
	o.RefreshRowAt(7, tick) // refresh at the exact flip tick
	if o.Disturbance(7) != 0 {
		t.Errorf("refresh did not clear disturbance: %v", o.Disturbance(7))
	}
	// Residual same-tick activity must not re-report row 7 (and row 9 is
	// still latched from the first episode): no new flips at all.
	flips = o.AppendActivateOpen(nil, 8, tick, 250)
	if len(flips) != 0 {
		t.Errorf("refresh at flip tick double-reported: new %v, want none", flips)
	}
	// A refresh strictly after the flip tick releases the latch.
	o.RefreshRowAt(7, tick+1)
	flips = o.AppendActivateOpen(nil, 8, tick+2, 250)
	found := false
	for _, f := range flips {
		found = found || f.Victim == 7
	}
	if !found {
		t.Error("later refresh failed to release the latch: no new flip for row 7")
	}
}
