//go:build race

package flowsim

func init() { raceEnabled = true }
