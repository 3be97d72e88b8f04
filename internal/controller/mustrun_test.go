package controller

import (
	"context"

	"horse/internal/simtime"
	"horse/internal/stats"
)

// mustRun drives an engine through Run under a background context.
// Background contexts cannot cancel, so a returned error is a bug and
// panics the test.
func mustRun(sim interface {
	Run(context.Context, simtime.Time) (*stats.Collector, error)
}, until simtime.Time) *stats.Collector {
	col, err := sim.Run(context.Background(), until)
	if err != nil {
		panic(err)
	}
	return col
}
