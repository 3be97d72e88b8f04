package packetsim

import "horse/internal/eventq"

// Test scaffolding shared with package packetsim_test, whose tests build
// engines through the public façade.

// RunResult is everything a determinism test compares between two runs.
type RunResult = runResult

var (
	GoldenFatTree    = goldenFatTree
	CBR              = cbr
	ScriptFailures   = scriptFailures
	Snapshot         = snapshot
	DiffRuns         = diffRuns
	MemoFastFailover = memoFastFailover
)

// GoldenOnHeap runs the golden scenario on a heap-ordered kernel: the
// oracle the façade's default queue is held to.
func GoldenOnHeap() RunResult {
	return runGolden(streamOpts{queue: func() eventq.Canceler { return eventq.NewHeap() }})
}
