package packetsim

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
