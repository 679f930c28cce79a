//go:build race

package memctrl

func init() { raceEnabled = true }
