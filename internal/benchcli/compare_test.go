package benchcli

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"horse/internal/experiments"
)

func sampleReport() *experiments.Report {
	return experiments.NewReport([]*experiments.Table{
		{
			ID:      "E2",
			Columns: []string{"leaves", "events", "wall-ms", "events/ms"},
			Rows: [][]string{
				{"4", "100000", "250.0", "400.00"},
				{"8", "200000", "500.0", "400.00"},
			},
		},
		{
			ID:      "E6",
			Columns: []string{"variant", "queue", "events", "wall-ms", "events/ms", "parity"},
			Rows: [][]string{
				{"incremental", "heap", "50000", "100.0", "500.00", "identical"},
				{"incremental", "wheel", "50000", "60.0", "833.33", "identical"},
			},
		},
	}, 1, 900*time.Millisecond)
}

// slowedBy returns the sample report with every timing column degraded by
// the factor (wall times up, throughput down) — the synthetic slowdown of
// the acceptance criterion.
func slowedBy(factor float64) *experiments.Report {
	r := sampleReport()
	for _, t := range r.Tables {
		wi := columnIndex(t.Columns, "wall-ms")
		ei := columnIndex(t.Columns, "events/ms")
		for _, row := range t.Rows {
			w, _ := cellFloat(row, wi)
			e, _ := cellFloat(row, ei)
			row[wi] = strconv.FormatFloat(w*factor, 'f', 1, 64)
			row[ei] = strconv.FormatFloat(e/factor, 'f', 2, 64)
		}
	}
	r.WallMS *= factor
	return r
}

func TestCompareIdenticalPasses(t *testing.T) {
	if bad := Compare(sampleReport(), sampleReport(), DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	if bad := Compare(sampleReport(), slowedBy(1.10), DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("10%% slowdown flagged at 20%% tolerance: %v", bad)
	}
}

func TestCompareSyntheticSlowdownFails(t *testing.T) {
	bad := Compare(sampleReport(), slowedBy(1.25), DefaultCompareTol)
	if len(bad) == 0 {
		t.Fatal("25% slowdown passed the ±20% gate")
	}
	for _, v := range bad {
		t.Log(v)
	}
}

// TestCompareParallelMismatchSkipsTiming: timing columns measured under a
// different worker count than the baseline are contention, not regression
// — only the deterministic columns stay gated.
func TestCompareParallelMismatchSkipsTiming(t *testing.T) {
	slow := slowedBy(1.25)
	slow.Parallel = 8
	if bad := Compare(sampleReport(), slow, DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("timing gated across differing -parallel: %v", bad)
	}
	drift := sampleReport()
	drift.Parallel = 8
	drift.Tables[0].Rows[0][1] = "999"
	if bad := Compare(sampleReport(), drift, DefaultCompareTol); len(bad) == 0 {
		t.Fatal("event-count drift passed under a -parallel mismatch")
	}
}

// TestCompareFingerprintMismatchSkipsTiming: a report measured on
// different hardware than the baseline is not timing-comparable — only
// the deterministic columns stay gated.
func TestCompareFingerprintMismatchSkipsTiming(t *testing.T) {
	slow := slowedBy(1.25)
	slow.Host = &experiments.Host{CPUModel: "Imaginary-X1", Cores: 128, GOARCH: "arm64"}
	if why := FingerprintMismatch(sampleReport(), slow); why == "" {
		t.Fatal("fingerprint mismatch not detected")
	}
	if bad := Compare(sampleReport(), slow, DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("timing gated across differing hosts: %v", bad)
	}
	drift := sampleReport()
	drift.Host = &experiments.Host{CPUModel: "Imaginary-X1", Cores: 128, GOARCH: "arm64"}
	drift.Tables[0].Rows[0][1] = "999"
	if bad := Compare(sampleReport(), drift, DefaultCompareTol); len(bad) == 0 {
		t.Fatal("event-count drift passed under a host mismatch")
	}
}

// TestCompareLegacyBaselineSkipsTiming: a baseline generated before
// fingerprinting carries no host stanza; it cannot vouch for timing.
func TestCompareLegacyBaselineSkipsTiming(t *testing.T) {
	old := sampleReport()
	old.Host = nil
	if why := FingerprintMismatch(old, sampleReport()); !strings.Contains(why, "no host fingerprint") {
		t.Fatalf("legacy baseline reason = %q", why)
	}
	if bad := Compare(old, slowedBy(1.25), DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("timing gated against an unfingerprinted baseline: %v", bad)
	}
}

func TestFingerprintStamped(t *testing.T) {
	rep := sampleReport()
	if rep.Host == nil {
		t.Fatal("NewReport did not stamp a host fingerprint")
	}
	if rep.Host.Cores <= 0 || rep.Host.GOARCH == "" || rep.Host.CPUModel == "" {
		t.Fatalf("incomplete fingerprint: %+v", rep.Host)
	}
	if FingerprintMismatch(rep, sampleReport()) != "" {
		t.Fatal("same-host fingerprints mismatch")
	}
}

func TestCompareSpeedupPasses(t *testing.T) {
	if bad := Compare(sampleReport(), slowedBy(0.5), DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("2x speedup flagged as regression: %v", bad)
	}
}

func TestCompareEventDriftFails(t *testing.T) {
	cur := sampleReport()
	cur.Tables[0].Rows[1][1] = "200001" // one extra event
	bad := Compare(sampleReport(), cur, DefaultCompareTol)
	if len(bad) != 1 || !strings.Contains(bad[0], "events") {
		t.Fatalf("event drift not flagged exactly once: %v", bad)
	}
}

func TestCompareParityDivergenceFails(t *testing.T) {
	cur := sampleReport()
	cur.Tables[1].Rows[1][5] = "DIVERGED"
	bad := Compare(sampleReport(), cur, DefaultCompareTol)
	if len(bad) != 1 || !strings.Contains(bad[0], "DIVERGED") {
		t.Fatalf("parity divergence not flagged exactly once: %v", bad)
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	// A row whose baseline wall sits under the noise floor never flags,
	// however bad its timing ratio looks.
	old := sampleReport()
	cur := sampleReport()
	old.Tables[0].Rows[0][2] = "1.0"  // baseline wall-ms below the 20ms floor
	cur.Tables[0].Rows[0][2] = "19.0" // 19x slower — still sub-floor
	cur.Tables[0].Rows[0][3] = "1.00" // throughput collapsed — same row, skipped
	if bad := Compare(old, cur, DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("sub-floor row flagged: %v", bad)
	}
}

func TestCompareRowCountMismatchFails(t *testing.T) {
	cur := sampleReport()
	cur.Tables[0].Rows = cur.Tables[0].Rows[:1]
	if bad := Compare(sampleReport(), cur, DefaultCompareTol); len(bad) == 0 {
		t.Fatal("missing row passed the gate")
	}
}

func TestCompareMissingTableFails(t *testing.T) {
	cur := sampleReport()
	cur.Tables = cur.Tables[:1] // E6 vanished from the new report
	bad := Compare(sampleReport(), cur, DefaultCompareTol)
	if len(bad) != 1 || !strings.Contains(bad[0], "E6") {
		t.Fatalf("missing table not flagged exactly once: %v", bad)
	}
}

func TestCompareNewTablePasses(t *testing.T) {
	cur := sampleReport()
	cur.Tables = append(cur.Tables, &experiments.Table{
		ID: "E10", Columns: []string{"x", "wall-ms"}, Rows: [][]string{{"a", "9999.0"}},
	})
	if bad := Compare(sampleReport(), cur, DefaultCompareTol); len(bad) != 0 {
		t.Fatalf("new table without baseline flagged: %v", bad)
	}
}
