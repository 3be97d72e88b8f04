package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
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
	tb := runSpecs(Options{}, []*spec{e1Spec(Options{})})[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	fct := colIndex(tb, "mean-FCT-s")
	drop := colIndex(tb, "dropped")
	punts := colIndex(tb, "punts")
	// Misconfigured LB must cost FCT versus balanced ECMP.
	if cell(t, tb, 1, fct) <= cell(t, tb, 0, fct) {
		t.Errorf("misconfigured LB FCT %s not worse than balanced %s",
			tb.Rows[1][fct], tb.Rows[0][fct])
	}
	// The all-policies run blackholes traffic.
	if cell(t, tb, 2, drop) == 0 {
		t.Error("all-policies run dropped nothing; blackhole inactive")
	}
	// The policies coexist: stacking them punts nothing extra.
	for i := 1; i < len(tb.Rows); i++ {
		if tb.Rows[i][punts] != tb.Rows[0][punts] {
			t.Errorf("%s punts %s, %s punts %s", tb.Rows[i][0], tb.Rows[i][punts], tb.Rows[0][0], tb.Rows[0][punts])
		}
	}
}

func TestE2Shape(t *testing.T) {
	tb := runSpecs(Options{}, []*spec{e2Spec(Options{}, []int{4, 8}, []float64{200})})[0]
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
	tb := runSpecs(Options{}, []*spec{e3Spec(Options{})})[0]
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
	tb := runSpecs(Options{}, []*spec{e4Spec(Options{}, []int{100}, 3)})[0]
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
	tb := runSpecs(Options{}, []*spec{e5Spec(Options{})})[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	fm := colIndex(tb, "flowmods")
	// Reactive forwarding must cost more FlowMods than proactive MAC.
	if cell(t, tb, 1, fm) <= cell(t, tb, 0, fm) {
		t.Errorf("reactive flowmods %s not above proactive %s", tb.Rows[1][fm], tb.Rows[0][fm])
	}
	// Every config moves the same workload and punts the same misses.
	flows := colIndex(tb, "flows")
	punts := colIndex(tb, "packetins")
	for i := 1; i < len(tb.Rows); i++ {
		if tb.Rows[i][flows] != tb.Rows[0][flows] {
			t.Error("configs saw different workloads")
		}
		if tb.Rows[i][punts] != tb.Rows[0][punts] {
			t.Errorf("%s packetins %s, %s packetins %s", tb.Rows[i][0], tb.Rows[i][punts], tb.Rows[0][0], tb.Rows[0][punts])
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := runSpecs(Options{}, []*spec{e6Spec(Options{})})[0]
	const variants = 2 // incremental, full-recompute
	if len(tb.Rows) != 2*variants {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Determinism: within a workload, both variants process identical
	// event and rate-change counts.
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
	tb := runSpecs(Options{}, []*spec{e7Spec(Options{}, fractions)})[0]
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
	tb := runSpecs(Options{}, []*spec{e8Spec(Options{},
		[]simtime.Duration{500 * simtime.Millisecond},
		[]simtime.Duration{200 * simtime.Millisecond},
	)})[0]
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
// adaptive-rate model degrades with zero corruption — and every cell
// holds byte-parity with a second run of its seed, models enabled.
func TestE10Shape(t *testing.T) {
	tb := runSpecs(Options{}, []*spec{e10Spec(Options{}, e10QuickModels())})[0]
	// Per model: {flow, packet, hybrid} = 3 rows; the quick grid has two
	// models.
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
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
	mk := func(par int) string {
		o := Options{Parallel: par, Now: frozenClock}
		return renderTables(runSpecs(o, []*spec{e8Spec(o, mtbfs, recs)}))
	}
	seq, par := mk(1), mk(4)
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

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

const goldenPath = "testdata/quick.golden"

// TestParallelDeterminism is the E-suite's contract: the quick suite under
// one worker and under many workers renders byte-identical tables
// (wall-clock columns pinned by a frozen test clock), and the rendering
// equals testdata/quick.golden. Every deterministic cell — events, flows,
// pkt-hops, parity, errors, row counts — is pinned there; a change that
// moves one regenerates the file with -update, and the diff is reviewed.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite twice; skipped in -short")
	}
	render := func(par int) string {
		tables, err := Run(Options{Parallel: par, Now: frozenClock}, true, "")
		if err != nil {
			t.Fatal(err)
		}
		return renderTables(tables)
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("-parallel 1 and -parallel 8 diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(want) {
		t.Fatalf("quick suite differs from %s (rerun with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s", goldenPath, seq, want)
	}
}

// TestUtilMAEDeterministic: util-MAE sums floats over link directions, so
// it must visit them in a fixed order, not Go's randomized map order.
func TestUtilMAEDeterministic(t *testing.T) {
	a, b := stats.NewCollector(0), stats.NewCollector(0)
	for l := 0; l < 64; l++ {
		for _, fwd := range []bool{true, false} {
			a.AddLinkSample(stats.LinkSample{Link: netgraph.LinkID(l), Forward: fwd, UsedFrac: 1 / float64(l+3)})
			b.AddLinkSample(stats.LinkSample{Link: netgraph.LinkID(l), Forward: fwd, UsedFrac: math.Sqrt(float64(l)) / 10})
		}
	}
	first := utilMAE(a, b)
	for i := 0; i < 100; i++ {
		if got := utilMAE(a, b); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: utilMAE = %v, first call %v", i, got, first)
		}
	}
}

// BenchmarkQuick times each experiment of the quick grid on one worker.
func BenchmarkQuick(b *testing.B) {
	for _, e := range grid {
		b.Run(e.id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Options{Parallel: 1}, true, e.id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParallelDeterminismSmall is the cheap always-on variant: a grid
// experiment with enough cells to interleave.
func TestParallelDeterminismSmall(t *testing.T) {
	mk := func(par int) string {
		o := Options{Parallel: par, Now: frozenClock}
		return renderTables(runSpecs(o, []*spec{e2Spec(o, []int{4, 8}, []float64{200, 500})}))
	}
	seq, par := mk(1), mk(4)
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
