package energy

import (
	"math"
	"strings"
	"testing"
)

func TestTableVConstants(t *testing.T) {
	if ActPrePerOp != 11.49 {
		t.Errorf("ACT+PRE = %g nJ, want 11.49 (Table V)", ActPrePerOp)
	}
	if RefreshPerBankPerTREFW != 1.08e6 {
		t.Errorf("REFs/bank/tREFW = %g nJ, want 1.08e6 (Table V)", RefreshPerBankPerTREFW)
	}
	// §V-B1: Graphene's per-ACT dynamic energy is 0.032% of an ACT+PRE pair.
	ratio := GrapheneDynamicPerACT / ActPrePerOp
	if math.Abs(ratio-0.00032) > 0.00002 {
		t.Errorf("dynamic/ACT ratio = %.5f, want ≈ 0.032%%", ratio)
	}
}

func TestRowRefreshEnergy(t *testing.T) {
	per := RowRefreshEnergy(64 * 1024)
	if per < 16 || per > 17 {
		t.Errorf("row refresh = %g nJ, want ≈ 16.5 (1.08e6/64K)", per)
	}
	if RowRefreshEnergy(0) != 0 {
		t.Error("RowRefreshEnergy(0) != 0")
	}
}

func TestRefreshOverheadRatio(t *testing.T) {
	a := Accounting{RowsAutoRefreshed: 64 * 1024, RowsVictim: 218, RowsPerBank: 64 * 1024}
	// The paper's worst case for Graphene is ≈ 0.34%; 218 extra rows per
	// 64K normal rows is ≈ 0.33%.
	if got := a.RefreshOverhead(); math.Abs(got-0.00333) > 0.0001 {
		t.Errorf("overhead = %g, want ≈ 0.0033", got)
	}
	empty := Accounting{}
	if empty.RefreshOverhead() != 0 {
		t.Error("empty accounting overhead != 0")
	}
}

func TestRefreshEnergyAbsolute(t *testing.T) {
	a := Accounting{RowsAutoRefreshed: 64 * 1024, RowsVictim: 0, RowsPerBank: 64 * 1024}
	if got := a.RefreshEnergy(); math.Abs(got-RefreshPerBankPerTREFW) > 1 {
		t.Errorf("one window of refreshes = %g nJ, want %g", got, RefreshPerBankPerTREFW)
	}
}

func TestGrapheneTableEnergyIsNegligible(t *testing.T) {
	// One full window at the max ACT rate: table energy must stay far
	// below refresh energy (the paper's headline Table V comparison).
	a := Accounting{
		ACTs:        1_360_000,
		Windows:     1,
		RowsPerBank: 64 * 1024,
	}
	table := a.GrapheneTableEnergy()
	if table <= 0 {
		t.Fatal("table energy not positive")
	}
	if ratio := table / RefreshPerBankPerTREFW; ratio > 0.01 {
		t.Errorf("table/refresh energy = %g, want < 1%%", ratio)
	}
}

func TestAccountingString(t *testing.T) {
	a := Accounting{RowsAutoRefreshed: 1000, RowsVictim: 10}
	s := a.String()
	if !strings.Contains(s, "10 victim rows") || !strings.Contains(s, "1000 normal rows") {
		t.Errorf("String = %q", s)
	}
}
