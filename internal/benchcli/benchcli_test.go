package benchcli

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"horse/internal/experiments"
)

// goldenTable returns the columns and rows of one table of the quick
// suite's golden rendering.
func goldenTable(t *testing.T, id string) (cols []string, rows [][]string) {
	t.Helper()
	b, err := os.ReadFile("../experiments/testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			in = strings.HasPrefix(line, "== "+id+":")
		case !in || line == "" || strings.HasPrefix(line, "note: "):
		case cols == nil:
			cols = strings.Fields(line)
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	if cols == nil {
		t.Fatalf("golden has no %s table", id)
	}
	return cols, rows
}

// TestQuickOnlyRunsQuickGrid: -quick -only E2 runs E2's quick grid, so its
// rows are the golden's E2 rows, timing columns aside.
func TestQuickOnlyRunsQuickGrid(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main("horsebench", []string{"-quick", "-only", "e2", "-json", "-"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rep experiments.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, stdout.String())
	}
	if len(rep.Tables) != 1 || rep.Tables[0].ID != "E2" {
		t.Fatalf("tables = %+v, want E2 only", rep.Tables)
	}
	got := rep.Tables[0]
	cols, rows := goldenTable(t, "E2")
	if strings.Join(got.Columns, " ") != strings.Join(cols, " ") {
		t.Fatalf("columns = %v, golden %v", got.Columns, cols)
	}
	if len(got.Rows) != len(rows) {
		t.Fatalf("%d rows, golden has %d:\n%v", len(got.Rows), len(rows), got.Rows)
	}
	timing := map[string]bool{"wall-ms": true, "events/ms": true}
	for i, r := range got.Rows {
		for j, c := range cols {
			if !timing[c] && r[j] != rows[i][j] {
				t.Errorf("row %d %s = %s, golden %s", i, c, r[j], rows[i][j])
			}
		}
	}
}

func TestUnknownExperimentExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main("horsebench", []string{"-quick", "-only", "E9"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "E9"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestCompareIsUnknownFlag: horsebench has no timing gate; -compare is a
// usage error.
func TestCompareIsUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main("horsebench", []string{"-quick", "-compare", "BENCH_baseline.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
