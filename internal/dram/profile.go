package dram

import "fmt"

// Profile bundles one device generation's geometry and timing so the CLIs
// (rhsim -profile, rhsweep -profile, rhsimd hellos) select a whole device
// with one name instead of a dozen flags.
type Profile struct {
	Name     string
	Geometry Geometry
	Timing   Timing
}

// DDR4Profile is the paper's evaluation device: the Table III geometry on
// DDR4-2400 timing. This is the implicit profile of every pre-profile
// code path, so selecting it changes nothing.
func DDR4Profile() Profile {
	return Profile{Name: "ddr4", Geometry: Default(), Timing: DDR4()}
}

// DDR5Profile is the RFM-era device the next-generation trackers target:
// twice the banks per rank (JEDEC DDR5 moves to 32), DDR5-4800 timing
// with tRAS and the Refresh Management protocol enabled.
func DDR5Profile() Profile {
	g := Default()
	g.BanksPerRank = 32
	return Profile{Name: "ddr5", Geometry: g, Timing: DDR5()}
}

// ProfileByName resolves a device profile by its CLI name.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "", "ddr4":
		return DDR4Profile(), nil
	case "ddr5":
		return DDR5Profile(), nil
	}
	return Profile{}, fmt.Errorf("dram: unknown device profile %q (want ddr4 or ddr5)", name)
}
