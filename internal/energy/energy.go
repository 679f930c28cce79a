// Package energy models the DRAM and tracking-table energies the paper uses
// for its overhead evaluation (Table V and Figures 8 and 9).
//
// The paper reports refresh-energy overhead as the relative increase in
// refresh energy caused by victim row refreshes; since every row refresh
// costs the same, that ratio equals extra-rows-refreshed over
// normally-refreshed rows. This package keeps the absolute constants (for
// Table V and the example tools) and provides that relative accounting.
package energy

import "fmt"

// Nanojoule-denominated constants from Table V (Micron DDR4 power
// calculator values for the DRAM side, TSMC 40nm synthesis for Graphene).
const (
	// ActPrePerOp is the energy of one ACT+PRE pair on the DRAM device.
	ActPrePerOp = 11.49 // nJ

	// RefreshPerBankPerTREFW is the energy all normal refreshes of one bank
	// consume over one refresh window.
	RefreshPerBankPerTREFW = 1.08e6 // nJ

	// GrapheneDynamicPerACT is the Graphene table-update energy per ACT
	// (0.032% of an ACT+PRE pair).
	GrapheneDynamicPerACT = 3.69e-3 // nJ

	// GrapheneStaticPerTREFW is the Graphene table static (leakage) energy
	// over one refresh window as reported in Table V. (The running text of
	// §V-B1 quotes 2.11e3 nJ — 0.373% of refresh energy — for the same
	// quantity; we follow the table and note the discrepancy in
	// EXPERIMENTS.md.)
	GrapheneStaticPerTREFW = 4.03e3 // nJ
)

// RowRefreshEnergy returns the energy to refresh a single row, derived from
// the per-window refresh energy and the number of rows refreshed per window.
func RowRefreshEnergy(rowsPerBank int) float64 {
	if rowsPerBank <= 0 {
		return 0
	}
	return RefreshPerBankPerTREFW / float64(rowsPerBank)
}

// Accounting accumulates the row-refresh counts of a simulation and reports
// the paper's refresh-energy-overhead metric.
type Accounting struct {
	RowsAutoRefreshed int64 // rows refreshed by the normal refresh routine
	RowsVictim        int64 // rows refreshed by victim refreshes (NRR etc.)
	ACTs              int64 // activations (for table dynamic energy)
	Windows           float64
	RowsPerBank       int
}

// RefreshOverhead returns the relative increase in refresh energy caused by
// victim refreshes: victim rows / normally refreshed rows. This is the
// y-axis of Fig. 8(a)/(b) and Fig. 9(b)/(c).
func (a Accounting) RefreshOverhead() float64 {
	if a.RowsAutoRefreshed == 0 {
		return 0
	}
	return float64(a.RowsVictim) / float64(a.RowsAutoRefreshed)
}

// RefreshEnergy returns the absolute refresh energy (normal + victim) in nJ.
func (a Accounting) RefreshEnergy() float64 {
	per := RowRefreshEnergy(a.RowsPerBank)
	return per * float64(a.RowsAutoRefreshed+a.RowsVictim)
}

// GrapheneTableEnergy returns the Graphene tracking-structure energy in nJ
// over the accounted interval: dynamic per ACT plus static per window
// (Table V).
func (a Accounting) GrapheneTableEnergy() float64 {
	return GrapheneDynamicPerACT*float64(a.ACTs) + GrapheneStaticPerTREFW*a.Windows
}

// String formats the headline ratio.
func (a Accounting) String() string {
	return fmt.Sprintf("refresh overhead %.4f%% (%d victim rows / %d normal rows)",
		100*a.RefreshOverhead(), a.RowsVictim, a.RowsAutoRefreshed)
}
