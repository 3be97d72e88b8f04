package benchcli

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"horse/internal/experiments"
)

// Thresholds of the benchmark-regression gate.
const (
	// DefaultCompareTol is the relative tolerance on timing columns.
	DefaultCompareTol = 0.20
	// compareWallFloorMS ignores timing comparisons on rows whose
	// baseline wall time is below this — sub-noise cells measure the
	// scheduler, not the simulator.
	compareWallFloorMS = 20.0
	// compareReportFloorMS is the same floor for the report-level wall.
	compareReportFloorMS = 100.0
)

// LoadReport reads a horse-bench/v1 JSON report.
func LoadReport(path string) (*experiments.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r experiments.Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != experiments.ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, experiments.ReportSchema)
	}
	return &r, nil
}

// Compare gates a new report against a baseline and returns the
// violations (empty means the gate passes). The rules:
//
//   - "events" columns must match exactly: simulation runs are
//     deterministic, so any drift means engine behavior changed — a
//     deliberate change regenerates the baseline (make bench-baseline).
//   - "wall-ms" may not regress beyond the relative tolerance, and
//     "events/ms" (throughput) may not fall beyond it, on rows whose
//     baseline wall clears the noise floor. Improvements never fail.
//   - any "parity" cell reading DIVERGED fails outright — those columns
//     carry the engines' own determinism contracts.
//   - tables/rows present in the baseline must still exist; new tables
//     (a new experiment) pass without a baseline.
//   - timing columns are compared only when both reports ran with the
//     same worker count AND carry matching host fingerprints: a contended
//     default-parallel run gated against a -parallel 1 baseline measures
//     the scheduler, and a fast runner gated against a slow dev box's
//     baseline trivially passes (see FingerprintMismatch).
func Compare(old, cur *experiments.Report, tol float64) []string {
	var bad []string
	fail := func(format string, a ...interface{}) { bad = append(bad, fmt.Sprintf(format, a...)) }
	timing := old.Parallel == cur.Parallel && FingerprintMismatch(old, cur) == ""

	oldTables := make(map[string]*experiments.Table, len(old.Tables))
	for _, t := range old.Tables {
		oldTables[t.ID] = t
	}
	for _, nt := range cur.Tables {
		// Self-contained determinism contracts first.
		if pi := columnIndex(nt.Columns, "parity"); pi >= 0 {
			for _, row := range nt.Rows {
				if pi < len(row) && row[pi] == "DIVERGED" {
					fail("%s %s: parity DIVERGED", nt.ID, rowName(row))
				}
			}
		}
		ot := oldTables[nt.ID]
		if ot == nil {
			continue // new experiment: no baseline yet
		}
		if len(nt.Rows) != len(ot.Rows) {
			fail("%s: %d rows vs baseline %d", nt.ID, len(nt.Rows), len(ot.Rows))
			continue
		}
		wallIdx := columnIndex(ot.Columns, "wall-ms")
		for ci, col := range ot.Columns {
			nci := columnIndex(nt.Columns, col)
			if nci < 0 {
				fail("%s: column %q missing", nt.ID, col)
				continue
			}
			kind := columnKind(col)
			if kind == colOther {
				continue
			}
			for ri := range ot.Rows {
				ov, oerr := cellFloat(ot.Rows[ri], ci)
				nv, nerr := cellFloat(nt.Rows[ri], nci)
				if oerr != nil || nerr != nil {
					continue
				}
				switch kind {
				case colEvents:
					if ov != nv {
						fail("%s %s: %s %v vs baseline %v (deterministic column; regenerate the baseline if the change is intended)",
							nt.ID, rowName(nt.Rows[ri]), col, nv, ov)
					}
				case colWall:
					if !timing || ov < compareWallFloorMS {
						continue
					}
					if nv > ov*(1+tol) {
						fail("%s %s: %s %.1f vs baseline %.1f (+%.0f%% > %.0f%%)",
							nt.ID, rowName(nt.Rows[ri]), col, nv, ov, (nv/ov-1)*100, tol*100)
					}
				case colThroughput:
					if !timing {
						continue
					}
					if ow, err := cellFloat(ot.Rows[ri], wallIdx); wallIdx >= 0 && (err != nil || ow < compareWallFloorMS) {
						continue
					}
					if nv < ov*(1-tol) {
						fail("%s %s: %s %.1f vs baseline %.1f (-%.0f%% > %.0f%%)",
							nt.ID, rowName(nt.Rows[ri]), col, nv, ov, (1-nv/ov)*100, tol*100)
					}
				}
			}
		}
	}
	curTables := make(map[string]bool, len(cur.Tables))
	for _, t := range cur.Tables {
		curTables[t.ID] = true
	}
	for _, t := range old.Tables {
		if !curTables[t.ID] {
			fail("%s: table missing from the new report (baseline coverage lost)", t.ID)
		}
	}
	if timing && old.WallMS >= compareReportFloorMS && cur.WallMS > old.WallMS*(1+tol) {
		fail("suite wall %.0fms vs baseline %.0fms (+%.0f%% > %.0f%%)",
			cur.WallMS, old.WallMS, (cur.WallMS/old.WallMS-1)*100, tol*100)
	}
	return bad
}

// FingerprintMismatch explains why two reports' timing columns are not
// comparable across hardware — a non-empty human-readable reason when the
// host fingerprints differ (or the baseline predates fingerprinting) —
// or "" when they match. Callers print it as a warning; Compare uses it
// to skip timing columns (deterministic columns still gate).
func FingerprintMismatch(old, cur *experiments.Report) string {
	switch {
	case old.Host == nil:
		return "baseline has no host fingerprint (regenerate it with `make bench-baseline`)"
	case cur.Host == nil:
		return "current report has no host fingerprint"
	case *old.Host != *cur.Host:
		return fmt.Sprintf("baseline measured on %s/%d-core/%s, this run on %s/%d-core/%s",
			old.Host.CPUModel, old.Host.Cores, old.Host.GOARCH,
			cur.Host.CPUModel, cur.Host.Cores, cur.Host.GOARCH)
	}
	return ""
}

type colKind int

const (
	colOther colKind = iota
	colEvents
	colWall
	colThroughput
)

func columnKind(name string) colKind {
	switch {
	case name == "events" || name == "pkt-hops" || name == "flows":
		return colEvents
	case strings.HasSuffix(name, "wall-ms"):
		return colWall
	// E3's cross-fidelity "speedup" column divides by sub-millisecond
	// flow-engine walls and is noise-dominated — it stays ungated on
	// purpose.
	case strings.Contains(name, "events/ms") || strings.Contains(name, "events/sec"):
		return colThroughput
	}
	return colOther
}

func columnIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

func rowName(row []string) string {
	if len(row) == 0 {
		return "?"
	}
	return row[0]
}

func cellFloat(row []string, i int) (float64, error) {
	if i < 0 || i >= len(row) {
		return 0, fmt.Errorf("no cell %d", i)
	}
	return strconv.ParseFloat(row[i], 64)
}
