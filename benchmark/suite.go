package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// workloadReport merges a workload's two child passes.
type workloadReport struct {
	EndToEnd *childReport `json:"end_to_end_pass"`
	Layers   *childReport `json:"layers_pass"`
}

// suiteReport is what -json writes.
type suiteReport struct {
	Schema    string                    `json:"schema"`
	Host      hostInfo                  `json:"host"`
	Seed      int64                     `json:"seed"`
	Scale     float64                   `json:"scale"`
	Seconds   float64                   `json:"seconds_per_pass"`
	Bounds    map[string]float64        `json:"regression_bounds"`
	Note      string                    `json:"note"`
	Workloads map[string]workloadReport `json:"workloads"`
	Order     []string                  `json:"order"`
	Selfcheck []selfcheckRow            `json:"selfcheck,omitempty"`
	FailedOps int                       `json:"failed_ops"`
	Ops       int                       `json:"ops"`
}

const accuracyNote = "Host-time metrics only. How closely flow-level results track the packet reference is measured by experiments E3 and E7 (fct-relerr 0.56-0.83 at this commit); this benchmark gives no error figure."

// runSuite runs every selected workload as two sequential child
// processes — an untraced pass for the end-to-end metrics, a traced pass
// for the layers — so no workload shares a heap with another.
func runSuite(c config) error {
	names, err := selected(c.only)
	if err != nil {
		return err
	}
	first, err := runSet(c, names, "a")
	if err != nil {
		return err
	}
	rep := first
	ok := rep.FailedOps == 0
	if c.selfcheck {
		second, err := runSet(c, names, "b")
		if err != nil {
			return err
		}
		ok = ok && second.FailedOps == 0
		rep.Selfcheck = compareSets(names, first, second)
		fmt.Println("== selfcheck: second set vs first, end-to-end medians")
		for _, row := range rep.Selfcheck {
			fmt.Printf("   %-20s %-20s %12.6g -> %12.6g  worse by %6.3f  bound %.2f  %s\n",
				row.Workload, row.Metric, row.First, row.Second, row.WorseBy, row.Bound, row.Verdict)
			ok = ok && row.Verdict == "ok"
		}
	}
	if c.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if c.writeExpected != "" {
		exp := expectedFile{Seed: c.seed, Scale: c.scale, Workloads: map[string]expectedEntry{}}
		for _, n := range names {
			p := rep.Workloads[n].EndToEnd
			exp.Workloads[n] = expectedEntry{Records: p.Records, Digest: p.Digest}
		}
		b, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(c.writeExpected, append(b, '\n'), 0o644)
	}
	if !ok {
		return fmt.Errorf("suite failed: %d failed ops of %d, or a metric moved beyond its bound", rep.FailedOps, rep.Ops)
	}
	return nil
}

func selected(only string) ([]string, error) {
	if only != "" {
		if findWorkload(only) == nil {
			return nil, fmt.Errorf("unknown workload %q", only)
		}
		return []string{only}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names, nil
}

// runSet runs one full set of child passes.
func runSet(c config, names []string, tag string) (*suiteReport, error) {
	rep := &suiteReport{
		Schema: "horse-benchmark/v1", Host: hostFingerprint(), Seed: c.seed, Scale: c.scale, Seconds: c.seconds,
		Bounds: map[string]float64{}, Note: accuracyNote, Workloads: map[string]workloadReport{}, Order: names,
	}
	for _, m := range endToEndMetrics {
		rep.Bounds[m.name] = m.bound
	}
	digests := map[string]string{}
	for _, n := range names {
		var wr workloadReport
		var err error
		if wr.EndToEnd, err = runPass(c, n, 0, tag); err != nil {
			return nil, err
		}
		if wr.Layers, err = runPass(c, n, 1, tag); err != nil {
			return nil, err
		}
		rep.Workloads[n] = wr
		digests[n] = wr.EndToEnd.Digest
		for _, p := range []*childReport{wr.EndToEnd, wr.Layers} {
			rep.Ops += p.Ops
			rep.FailedOps += p.FailedOps
		}
		if ref := findWorkload(n).parityWith; ref != "" {
			if d, ran := digests[ref]; ran && d != wr.EndToEnd.Digest {
				fmt.Printf("   check %s digest equals %s across processes: FAILED %s vs %s\n", n, ref, wr.EndToEnd.Digest, d)
				rep.FailedOps++
			}
		}
	}
	return rep, nil
}

// runPass runs one child and reads its report back. The child's own
// output streams through, so the suite prints every metric by name.
func runPass(c config, name string, trace int, tag string) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	detail := filepath.Join(c.workdir, fmt.Sprintf("report-%s-%s-%d.json", name, tag, trace))
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-runs", strconv.Itoa(c.runs), "-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
		"-probes=" + strconv.FormatBool(c.probes), "-workdir", c.workdir, "-detail", detail,
	}
	// Profiles and the span file are per workload and per pass.
	suffix := func(path string) string { return fmt.Sprintf("%s.%s.trace%d", path, name, trace) }
	if c.cpuprofile != "" {
		args = append(args, "-cpuprofile", suffix(c.cpuprofile))
	}
	if c.memprofile != "" {
		args = append(args, "-memprofile", suffix(c.memprofile))
	}
	if c.traceOut != "" && trace == 1 {
		args = append(args, "-trace-out", c.traceOut+"."+name)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", name, trace, runErr)
		}
		return nil, err
	}
	os.Remove(detail)
	var rep childReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	// A child that wrote its report but exited non-zero failed a check;
	// the failure is already counted in its failed_ops.
	return &rep, nil
}

// selfcheckRow compares one end-to-end median between two sets of runs
// of the same commit.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// WorseBy is the share of the first median by which the second is
	// worse (negative when it is better).
	WorseBy float64 `json:"worse_by"`
	Bound   float64 `json:"bound"`
	// Spread is the wider of the two sets' (max-min)/median.
	Spread float64 `json:"spread"`
	// Verdict is "ok", or "unresolved": the metric moved by more than its
	// bound between two runs of one commit, so on this host it cannot
	// resolve a regression of that size. The bound is not widened.
	Verdict string `json:"verdict"`
}

// setupSlackS is the absolute movement of setup_s the selfcheck lets
// pass whatever its share of the median: a setup of a millisecond moves by
// a third between two processes and nobody waits for it. BENCHMARK.json
// can only state the relative bound; the pipeline applies that alone.
const setupSlackS = 0.05

func compareSets(names []string, a, b *suiteReport) []selfcheckRow {
	var rows []selfcheckRow
	for _, n := range names {
		pa, pb := a.Workloads[n].EndToEnd, b.Workloads[n].EndToEnd
		for _, m := range endToEndMetrics {
			da, db := pa.EndToEnd[m.name], pb.EndToEnd[m.name]
			row := selfcheckRow{Workload: n, Metric: m.name, First: da.Median, Second: db.Median, Bound: m.bound, Verdict: "ok"}
			row.WorseBy = (db.Median - da.Median) / da.Median
			if m.better == "higher" {
				row.WorseBy = -row.WorseBy
			}
			for _, d := range []dist{da, db} {
				if d.Median > 0 {
					row.Spread = math.Max(row.Spread, (d.Max-d.Min)/d.Median)
				}
			}
			moved := math.Abs(row.WorseBy) > m.bound
			if m.name == "setup_s" && math.Abs(db.Median-da.Median) <= setupSlackS {
				moved = false
			}
			if moved {
				row.Verdict = fmt.Sprintf("unresolved (spread %.3f)", row.Spread)
			}
			rows = append(rows, row)
		}
	}
	return rows
}
