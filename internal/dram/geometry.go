package dram

import "fmt"

// Geometry describes the memory-system organization (Table III: 4 channels,
// 1 rank per channel, 16 banks per rank, 64K rows per bank).
type Geometry struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowsPerBank  int
}

// Default returns the paper's simulated configuration (Table III).
func Default() Geometry {
	return Geometry{Channels: 4, RanksPerChan: 1, BanksPerRank: 16, RowsPerBank: 64 * 1024}
}

// Validate reports an error for non-positive dimensions.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.RanksPerChan <= 0 || g.BanksPerRank <= 0 || g.RowsPerBank <= 0 {
		return fmt.Errorf("dram: invalid geometry %+v", g)
	}
	return nil
}

// Banks returns the total number of banks in the system.
func (g Geometry) Banks() int { return g.Channels * g.RanksPerChan * g.BanksPerRank }
