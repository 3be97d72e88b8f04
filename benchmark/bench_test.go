package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// smokeScale is 1/100 of the benchmark's input sizes: every workload, one
// run each, in a few seconds.
const smokeScale = 0.01

func smokeConfig(t *testing.T, name string, trace int) config {
	t.Helper()
	return config{
		workload: name, seed: 1, seconds: 1, trace: trace, runs: 1,
		scale: smokeScale, probes: true, workdir: t.TempDir(),
	}
}

func finiteNonNegative(t *testing.T, what string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Errorf("%s = %v, want finite and non-negative", what, v)
	}
}

// TestSmoke runs every workload end to end at 1/100 scale and checks the
// shape of what comes back: all five end-to-end metrics and every layer
// metric present, finite and non-negative; spans nested with non-negative
// self time; the record digest the same on every run and in both passes.
// It keeps the harness compiling against the packages it times.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureWorkload(smokeConfig(t, w.name, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.FailedOps != 0 {
				t.Errorf("end-to-end pass: correct=%v failed_ops=%d checks=%+v", e2e.Correct, e2e.FailedOps, e2e.Checks)
			}
			if e2e.Records == 0 || e2e.Records != e2e.Offered {
				t.Errorf("%d records for %d flows offered", e2e.Records, e2e.Offered)
			}
			for _, m := range endToEndMetrics {
				d, ok := e2e.EndToEnd[m.name]
				if !ok || d.N == 0 {
					t.Errorf("end-to-end metric %s missing", m.name)
					continue
				}
				finiteNonNegative(t, m.name, d.Median)
				if d.Median == 0 {
					t.Errorf("end-to-end metric %s is 0", m.name)
				}
			}

			cfg := smokeConfig(t, w.name, 1)
			cfg.traceOut = filepath.Join(cfg.workdir, "trace.json")
			layers, err := measureWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.Correct {
				t.Errorf("traced pass: checks=%+v", layers.Checks)
			}
			if layers.Digest != e2e.Digest {
				t.Errorf("digest %s in the traced pass, %s in the untraced one", layers.Digest, e2e.Digest)
			}
			nest := false
			for _, ck := range layers.Checks {
				nest = nest || (ck.Name == "spans-nest" && ck.OK)
			}
			if !nest {
				t.Error("no passing spans-nest check in the traced pass")
			}
			if layers.Layers == nil {
				t.Fatal("traced pass produced no layer report")
			}
			for _, m := range perLayerMetrics {
				v, ok := layers.Layers.Metrics[m.name]
				if !ok {
					t.Errorf("layer metric %s missing", m.name)
					continue
				}
				finiteNonNegative(t, m.name, v.Value)
			}
			for name, s := range layers.Layers.Spans {
				if s.SelfS < 0 || s.SelfS > s.TotalS {
					t.Errorf("span %s: self %v outside [0, total %v]", name, s.SelfS, s.TotalS)
				}
			}
			if layers.Layers.Metrics["trace_overhead"].Value == 0 || layers.Layers.Metrics["eventq.ns_per_op"].Value == 0 {
				t.Error("trace_overhead and eventq.ns_per_op apply to every workload and must not be 0")
			}
			var tf traceFile
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Error("trace file holds no spans")
			}
		})
	}
}

// TestSeedsChangeInputs guards the seed plumbing: two seeds must give two
// record streams, and one seed the same stream twice.
func TestSeedsChangeInputs(t *testing.T) {
	digest := func(seed int64) string {
		c := smokeConfig(t, "flow.stream-250k", 0)
		c.seed = seed
		rep, err := measureWorkload(c)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Digest
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
	if a, b := digest(3), digest(3); a != b {
		t.Errorf("seed 3 gave digests %s and %s", a, b)
	}
}

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestContractMatchesTables keeps BENCHMARK.json and the Go tables that
// produce the result line in step, and checks the contract's own limits.
func TestContractMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(raw)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys %v, want exactly %v", keys, want)
	}
	var c contractFile
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Paths, []string{"benchmark"}) || !reflect.DeepEqual(c.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v command %v", c.Paths, c.Command)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	// 4 + 22 runs per workload, each the measuring time plus warm-up,
	// extra setups and one iteration of overshoot, inside 3420 s.
	if total := (4 + 22*len(c.Workloads)) * (c.RunSeconds + 6); total > 3420 {
		t.Errorf("%d runs of ~%d s is %d s, over the 3420 s cap", 4+22*len(c.Workloads), c.RunSeconds+6, total)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or reused", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the suite %q / %q", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	metrics := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i, m := range want {
			name(m.name)
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the tables %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, want %v in (0, 0.25]", kind, m.name, g.Bound, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	metrics("end_to_end", c.EndToEnd, endToEndMetrics, true)
	metrics("per_layer", c.PerLayer, perLayerMetrics, false)
	if !seen["setup_s"] {
		t.Error("setup_s missing from end_to_end")
	}
}

// TestExpectedPinsEveryWorkload keeps expected.json complete.
func TestExpectedPinsEveryWorkload(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		e, ok := exp.Workloads[w.name]
		if !ok || e.Records == 0 || len(e.Digest) != 16 {
			t.Errorf("%s: expected.json entry %+v", w.name, e)
		}
		if w.parityWith != "" && e != exp.Workloads[w.parityWith] {
			t.Errorf("%s pinned to %+v, %s to %+v", w.name, e, w.parityWith, exp.Workloads[w.parityWith])
		}
	}
}
