package experiments

import (
	"encoding/json"
	"io"
	"time"
)

// ReportSchema names the JSON layout written by WriteJSON. Bump it when
// the shape changes so downstream tooling (the CI bench-smoke artifact
// diffing, plotting scripts) can dispatch on it.
const ReportSchema = "horse-bench/v1"

// Report is the machine-readable form of an experiment run — the payload
// of the BENCH_*.json artifacts that cmd/horsebench -json writes.
type Report struct {
	Schema   string   `json:"schema"`
	Parallel int      `json:"parallel"`
	WallMS   float64  `json:"wall_ms"`
	Tables   []*Table `json:"tables"`
}

// NewReport wraps finished tables with run metadata.
func NewReport(tables []*Table, parallel int, wall time.Duration) *Report {
	return &Report{
		Schema:   ReportSchema,
		Parallel: parallel,
		WallMS:   float64(wall.Microseconds()) / 1000,
		Tables:   tables,
	}
}

// WriteJSON emits the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
