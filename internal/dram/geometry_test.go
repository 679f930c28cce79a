package dram

import "testing"

func TestDefaultGeometryMatchesTableIII(t *testing.T) {
	g := Default()
	if g.Channels != 4 || g.RanksPerChan != 1 {
		t.Errorf("channels/ranks = %d/%d, want 4/1", g.Channels, g.RanksPerChan)
	}
	if got := g.Banks(); got != 64 {
		t.Errorf("Banks = %d, want 64 (4 ranks × 16 banks, §V-A)", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGeometryValidateRejectsBadDims(t *testing.T) {
	bad := []Geometry{
		{Channels: 0, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 1},
		{Channels: 1, RanksPerChan: 0, BanksPerRank: 1, RowsPerBank: 1},
		{Channels: 1, RanksPerChan: 1, BanksPerRank: 0, RowsPerBank: 1},
		{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", g)
		}
	}
}
