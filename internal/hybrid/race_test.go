//go:build race

package hybrid

func init() { raceEnabled = true }
