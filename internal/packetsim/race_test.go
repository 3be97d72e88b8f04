//go:build race

package packetsim

func init() { raceEnabled = true }
