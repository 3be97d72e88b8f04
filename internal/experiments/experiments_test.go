package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"horse/internal/simtime"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tb.ID, row, col, tb.Rows[row][col], err)
	}
	return v
}

func colIndex(tb *Table, name string) int {
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func TestE1Shape(t *testing.T) {
	tb := E1PolicyCoexistence()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	fct := colIndex(tb, "mean-FCT-s")
	drop := colIndex(tb, "dropped")
	// Misconfigured LB must cost FCT versus balanced ECMP.
	if cell(t, tb, 1, fct) <= cell(t, tb, 0, fct) {
		t.Errorf("misconfigured LB FCT %s not worse than balanced %s",
			tb.Rows[1][fct], tb.Rows[0][fct])
	}
	// The all-policies run blackholes traffic.
	if cell(t, tb, 2, drop) == 0 {
		t.Error("all-policies run dropped nothing; blackhole inactive")
	}
}

func TestE2Shape(t *testing.T) {
	tb := E2Scale([]int{4, 8}, []float64{200})
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	ev := colIndex(tb, "events")
	for i := range tb.Rows {
		if cell(t, tb, i, ev) == 0 {
			t.Errorf("row %d ran no events", i)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tb := E3Accuracy()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	rel := colIndex(tb, "fct-relerr")
	speedup := colIndex(tb, "speedup")
	// CBR scenario must be near-exact.
	if got := cell(t, tb, 0, rel); got > 0.05 {
		t.Errorf("CBR fct relative error = %g, want < 5%%", got)
	}
	// Every scenario must show a flow-level speedup.
	for i := range tb.Rows {
		if cell(t, tb, i, speedup) < 1 {
			t.Errorf("scenario %s: packet-level faster than flow-level?", tb.Rows[i][0])
		}
	}
	// TCP scenarios stay within the same order of magnitude.
	for i := 1; i < 3; i++ {
		if got := cell(t, tb, i, rel); got > 1.0 {
			t.Errorf("scenario %s: fct relative error = %g, want < 100%%", tb.Rows[i][0], got)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tb := E4IXPReplay([]int{100}, 3)
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if cell(t, tb, 0, colIndex(tb, "events")) == 0 {
		t.Error("replay ran no events")
	}
	if cell(t, tb, 0, colIndex(tb, "peak-fabric-util")) <= 0 {
		t.Error("fabric carried no traffic")
	}
}

func TestE5Shape(t *testing.T) {
	tb := E5ConfigSweep()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	fm := colIndex(tb, "flowmods")
	// Reactive forwarding must cost more FlowMods than proactive MAC.
	if cell(t, tb, 1, fm) <= cell(t, tb, 0, fm) {
		t.Errorf("reactive flowmods %s not above proactive %s", tb.Rows[1][fm], tb.Rows[0][fm])
	}
	// Every config moves the same workload.
	flows := colIndex(tb, "flows")
	for i := 1; i < len(tb.Rows); i++ {
		if tb.Rows[i][flows] != tb.Rows[0][flows] {
			t.Error("configs saw different workloads")
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := E6Ablations()
	const variants = 3 // wheel, heap (incremental) + wheel full-recompute
	if len(tb.Rows) != 2*variants {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Determinism: within a workload, all variants process identical
	// event and rate-change counts — including across queue backends.
	ev := colIndex(tb, "events")
	rc := colIndex(tb, "rate-changes")
	for _, base := range []int{0, variants} {
		for i := base + 1; i < base+variants; i++ {
			if tb.Rows[i][ev] != tb.Rows[base][ev] || tb.Rows[i][rc] != tb.Rows[base][rc] {
				t.Errorf("variant %s diverged from %s", tb.Rows[i][1], tb.Rows[base][1])
			}
		}
	}
}

func TestE7Shape(t *testing.T) {
	fractions := []float64{0, 0.5, 1}
	tb := E7HybridFidelity(fractions)
	if len(tb.Rows) != 1+len(fractions) {
		t.Fatalf("rows = %d, want reference + %d arms", len(tb.Rows), len(fractions))
	}
	parity := colIndex(tb, "pkt-parity")
	relerr := colIndex(tb, "fct-relerr")
	events := colIndex(tb, "events")
	// The 100% arm must reproduce the standalone packet engine exactly.
	last := len(tb.Rows) - 1
	if tb.Rows[last][parity] != "identical" {
		t.Errorf("100%% arm parity = %q, want identical", tb.Rows[last][parity])
	}
	if cell(t, tb, last, relerr) != 0 {
		t.Errorf("100%% arm fct-relerr = %s, want 0", tb.Rows[last][relerr])
	}
	// Work grows with the packet-level share.
	for i := 2; i <= last; i++ {
		if cell(t, tb, i, events) <= cell(t, tb, i-1, events) {
			t.Errorf("events not increasing with fidelity: row %d %s <= row %d %s",
				i, tb.Rows[i][events], i-1, tb.Rows[i-1][events])
		}
	}
	// Accuracy improves (weakly) from pure flow-level to pure packet.
	if cell(t, tb, last, relerr) > cell(t, tb, 1, relerr) {
		t.Errorf("relerr worsened with fidelity: %s -> %s", tb.Rows[1][relerr], tb.Rows[last][relerr])
	}
}

func TestE8Shape(t *testing.T) {
	tb := E8Resilience(
		[]simtime.Duration{500 * simtime.Millisecond},
		[]simtime.Duration{200 * simtime.Millisecond},
	)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want one per policy", len(tb.Rows))
	}
	failures := colIndex(tb, "failures")
	reroutes := colIndex(tb, "reroutes")
	stretch := colIndex(tb, "fct-stretch")
	churn := colIndex(tb, "rule-churn")
	for i := range tb.Rows {
		if cell(t, tb, i, failures) == 0 {
			t.Errorf("row %d saw no failures", i)
		}
		if cell(t, tb, i, reroutes) == 0 {
			t.Errorf("row %d never rerouted", i)
		}
		if cell(t, tb, i, stretch) < 1 {
			t.Errorf("row %d fct-stretch %s < 1: failures made flows faster?", i, tb.Rows[i][stretch])
		}
		if cell(t, tb, i, churn) == 0 {
			t.Errorf("row %d reconverged without rule churn", i)
		}
	}
}

// TestE10Shape pins the degraded-link table's structure and physics: the
// lossy arms corrupt frames and retransmit at packet level, the fluid
// engine folds loss into FCT inflation without per-frame drops, the
// adaptive-rate model degrades with zero corruption — and every wheel
// arm holds byte-parity with its heap reference, models enabled.
func TestE10Shape(t *testing.T) {
	tb := runSpecs(Options{}, []*spec{e10Spec(Options{}, e10QuickModels())})[0]
	// Per model: {flow, packet, hybrid} × {heap, wheel} = 6 rows; the
	// quick grid has two models.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	model := colIndex(tb, "model")
	fid := colIndex(tb, "fidelity")
	parity := colIndex(tb, "parity")
	corrupted := colIndex(tb, "corrupted")
	retx := colIndex(tb, "retx-ratio")
	completed := colIndex(tb, "completed")
	stretch := colIndex(tb, "fct-stretch")
	for i, r := range tb.Rows {
		if r[parity] != "identical" {
			t.Errorf("row %d (%s/%s) parity = %q", i, r[model], r[fid], r[parity])
		}
		if cell(t, tb, i, completed) == 0 {
			t.Errorf("row %d completed no flows", i)
		}
		switch {
		case r[model] == "bernoulli" && r[fid] != "flow":
			// Packet-granular engines drop corrupted frames and retransmit.
			if cell(t, tb, i, corrupted) == 0 {
				t.Errorf("row %d (%s/%s): lossy run corrupted nothing", i, r[model], r[fid])
			}
			if cell(t, tb, i, retx) == 0 {
				t.Errorf("row %d (%s/%s): lossy run never retransmitted", i, r[model], r[fid])
			}
		case r[model] == "bernoulli" && r[fid] == "flow":
			// The fluid engine has no frames to corrupt; loss shows up as
			// Mathis-capped throughput, i.e. FCT stretch.
			if cell(t, tb, i, corrupted) != 0 {
				t.Errorf("row %d: flow engine counted corrupted frames", i)
			}
			if cell(t, tb, i, stretch) <= 1 {
				t.Errorf("row %d: lossy flow run fct-stretch %s, want > 1", i, r[stretch])
			}
		case r[model] == "adaptive-rate":
			if cell(t, tb, i, corrupted) != 0 {
				t.Errorf("row %d: adaptive-rate corrupted frames", i)
			}
			if cell(t, tb, i, stretch) < 1 {
				t.Errorf("row %d: adaptive-rate fct-stretch %s < 1", i, r[stretch])
			}
		}
	}
}

// TestE10ParallelDeterminism: the degraded-link table is byte-identical
// for any worker count (no wall columns, so the comparison is exact).
func TestE10ParallelDeterminism(t *testing.T) {
	mk := func(par int) string {
		o := Options{Parallel: par, Now: frozenClock}
		return renderTables([]*Table{runSpecs(o, []*spec{e10Spec(o, e10QuickModels()[:1])})[0]})
	}
	seq, par := mk(1), mk(4)
	if seq != par {
		t.Fatalf("E10 diverged across worker counts:\n%s\nvs\n%s", seq, par)
	}
}

// TestE8ParallelDeterminism: the resilience table is byte-identical for
// any worker count — the scenario half of the parallel-determinism
// property, on the frozen-clock harness.
func TestE8ParallelDeterminism(t *testing.T) {
	mtbfs := []simtime.Duration{500 * simtime.Millisecond, 2 * simtime.Second}
	recs := []simtime.Duration{200 * simtime.Millisecond}
	seq := renderTables([]*Table{E8With(Options{Parallel: 1, Now: frozenClock}, mtbfs, recs)})
	par := renderTables([]*Table{E8With(Options{Parallel: 4, Now: frozenClock}, mtbfs, recs)})
	if seq != par {
		t.Fatalf("E8 diverged across worker counts:\n%s\nvs\n%s", seq, par)
	}
}

// frozenClock makes wall-time columns deterministic so tables can be
// compared byte-for-byte across worker counts.
func frozenClock() time.Time { return time.Time{} }

// renderTables prints tables the way cmd/horsebench does.
func renderTables(tables []*Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		tb.Fprint(func(format string, args ...interface{}) {
			fmt.Fprintf(&sb, format, args...)
		})
	}
	return sb.String()
}

// TestParallelDeterminism is the tentpole's core contract: the Quick suite
// under one worker and under many workers must produce byte-identical
// result tables (wall-clock columns pinned by a frozen test clock).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Quick suite twice; skipped in -short")
	}
	seq := renderTables(QuickWith(Options{Parallel: 1, Now: frozenClock}))
	par := renderTables(QuickWith(Options{Parallel: 8, Now: frozenClock}))
	if seq != par {
		t.Fatalf("-parallel 1 and -parallel 8 diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "== E1:") || !strings.Contains(seq, "== E8:") {
		t.Fatalf("suite missing experiments:\n%s", seq)
	}
}

// TestParallelDeterminismSmall is the cheap always-on variant: a grid
// experiment with enough cells to interleave.
func TestParallelDeterminismSmall(t *testing.T) {
	seq := renderTables([]*Table{E2With(Options{Parallel: 1, Now: frozenClock}, []int{4, 8}, []float64{200, 500})})
	par := renderTables([]*Table{E2With(Options{Parallel: 4, Now: frozenClock}, []int{4, 8}, []float64{200, 500})})
	if seq != par {
		t.Fatalf("E2 diverged across worker counts:\n%s\nvs\n%s", seq, par)
	}
}

func TestReportJSON(t *testing.T) {
	tables := []*Table{{
		ID: "EX", Title: "example", Columns: []string{"a"},
		Rows: [][]string{{"1"}}, Notes: []string{"n"},
	}}
	var buf bytes.Buffer
	if err := NewReport(tables, 4, 1500*time.Microsecond).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Schema != ReportSchema || got.Parallel != 4 || got.WallMS != 1.5 {
		t.Errorf("report meta = %+v", got)
	}
	if len(got.Tables) != 1 || got.Tables[0].ID != "EX" || got.Tables[0].Rows[0][0] != "1" {
		t.Errorf("report tables = %+v", got.Tables)
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{
		ID: "T", Title: "test", Columns: []string{"a", "bb"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var sb strings.Builder
	tb.Fprint(func(format string, args ...interface{}) {
		fmt.Fprintf(&sb, format, args...)
	})
	out := sb.String()
	for _, want := range []string{"== T: test ==", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
