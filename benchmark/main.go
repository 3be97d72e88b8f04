// Command benchmark measures Horse as a user gets it: six named
// workloads, five end-to-end metrics each, and a per-layer ledger under
// them. BENCHMARK.json at the repository root is its contract; README.md
// in this directory says who reads each number and why.
//
// Two levels share one binary. With -workload it measures that workload
// in this process and prints one JSON result as the last line of standard
// output (the form the pipeline drives, through run.sh). Without it, it
// runs every workload as a child process of its own — so workloads never
// share a heap — and prints the whole report.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// benchProcs pins the scheduler: the suite is sized for a 2-core box and
// the sharded workload needs exactly two workers to mean anything.
const benchProcs = 2

// minTimedRuns keeps a median meaningful on a host so slow that the time
// budget alone would allow fewer iterations.
const minTimedRuns = 3

// maxExtraSetups caps the setup-only samples added to the timed runs'.
const maxExtraSetups = 100

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	scale    float64
	probes   bool
	workdir  string

	detail     string
	traceOut   string
	cpuprofile string
	memprofile string

	// Suite-only.
	only          string
	jsonOut       string
	selfcheck     bool
	writeExpected string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "measure this one workload in-process and print the result line (omit to run the whole suite)")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long one workload measures, after its warm-up")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs and probes")
	flag.IntVar(&c.runs, "runs", 0, "timed runs per workload (0: as many as fit in -seconds, at least 3)")
	flag.Float64Var(&c.scale, "scale", 1, "input size multiplier (the go test smoke uses 0.01)")
	flag.BoolVar(&c.probes, "probes", true, "run the layer probes in the traced pass")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for sockets and child reports; created if missing")
	flag.StringVar(&c.detail, "detail", "", "also write this workload's full report (every run's values, checks, layers) to this file")
	flag.StringVar(&c.traceOut, "trace-out", "", "write the traced runs' spans to this file (-trace 1 only)")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured workload to this file")
	flag.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile of the measured workload to this file")
	flag.StringVar(&c.only, "only", "", "suite: run just this workload")
	flag.StringVar(&c.jsonOut, "json", "", "suite: write the full report to this file")
	flag.BoolVar(&c.selfcheck, "selfcheck", false, "suite: run everything twice and fail if any end-to-end median moves by more than its bound")
	flag.StringVar(&c.writeExpected, "write-expected", "", "suite: write the observed record counts and digests to this file (to re-pin expected.json after an intended semantic change)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if c.trace != 0 && c.trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1, got %d\n", c.trace)
		os.Exit(2)
	}
	if c.seconds <= 0 || c.scale <= 0 || c.runs < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive, -runs non-negative")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	var err error
	if c.workload != "" {
		err = runChild(c)
	} else {
		err = runSuite(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// check is one correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// childReport is one workload's full result, written by -detail and
// merged by the suite.
type childReport struct {
	Schema   string   `json:"schema"`
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Scale    float64  `json:"scale"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`

	// Ops is the flows offered over the timed runs; FailedOps the flows
	// that produced no record, plus failed sessions, plus failed checks.
	Ops       int  `json:"ops"`
	FailedOps int  `json:"failed_ops"`
	Correct   bool `json:"correct"`

	Offered int    `json:"flows_offered"`
	Records int    `json:"records"`
	Digest  string `json:"records_digest"`

	EndToEnd map[string]dist    `json:"end_to_end,omitempty"`
	Sim      map[string]float64 `json:"sim"`
	Checks   []check            `json:"checks"`
	Layers   *layerReport       `json:"layers,omitempty"`
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a -workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

//go:embed expected.json
var expectedJSON []byte

// expectedFile pins the record stream of every workload at one seed and
// scale: a change meant only to make the simulator faster must leave
// these untouched.
type expectedFile struct {
	Seed      int64                    `json:"seed"`
	Scale     float64                  `json:"scale"`
	Workloads map[string]expectedEntry `json:"workloads"`
}

type expectedEntry struct {
	Records int    `json:"records"`
	Digest  string `json:"records_digest"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

func digestHex(d uint64) string { return fmt.Sprintf("%016x", d) }

// measureWorkload measures one workload in this process: an untimed
// warm-up, then the pass -trace selects, then the correctness checks.
func measureWorkload(c config) (*childReport, error) {
	w := findWorkload(c.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	r, err := newRunner(w, c.seed, c.scale, c.workdir)
	if err != nil {
		return nil, err
	}
	rep := &childReport{
		Schema: "horse-benchmark-workload/v1", Workload: w.name, Why: w.why,
		Seed: c.seed, Scale: c.scale, Traced: c.trace == 1, Host: hostFingerprint(),
	}

	// Warm-up, untimed: fills caches, grows the heap to its working size,
	// and is the one iteration that keeps records — for the simulated
	// statistics, the reference digest, and the probes' inputs.
	keep := &collected{}
	ref, err := r.iterate(nil, keep)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	rep.Offered, rep.Records, rep.Digest = ref.Offered, ref.Records, digestHex(ref.Digest)
	rep.Sim = simStats(ref, keep)
	keep.fcts = nil

	var parity *runner
	if w.parityWith != "" {
		parity, err = newRunner(findWorkload(w.parityWith), c.seed, c.scale, c.workdir)
		if err != nil {
			return nil, err
		}
		pr, err := parity.iterate(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s reference run: %w", w.parityWith, err)
		}
		rep.Checks = append(rep.Checks, check{
			Name:   "digest-equals-" + w.parityWith,
			OK:     pr.Digest == ref.Digest && pr.Records == ref.Records,
			Detail: fmt.Sprintf("%s %d/%s vs %d/%s", w.parityWith, pr.Records, digestHex(pr.Digest), ref.Records, digestHex(ref.Digest)),
		})
	}

	stopProfile, err := startCPUProfile(c.cpuprofile)
	if err != nil {
		return nil, err
	}
	var timed []iterResult
	if c.trace == 0 {
		timed, err = measureEndToEnd(r, c, rep)
	} else {
		timed, err = measureLayers(r, parity, c, rep, ref, keep)
	}
	stopProfile()
	if err != nil {
		return nil, err
	}
	if err := writeMemProfile(c.memprofile); err != nil {
		return nil, err
	}

	rep.Checks = append(rep.Checks, streamChecks(c, w, ref, timed)...)
	for _, it := range timed {
		rep.Ops += it.Offered
		rep.FailedOps += max(0, it.Offered-it.Records)
		if it.SessionFailed {
			rep.FailedOps++
		}
	}
	rep.Correct = true
	for _, ck := range rep.Checks {
		if !ck.OK {
			rep.Correct = false
			rep.FailedOps++
		}
	}
	return rep, nil
}

// runChild measures one workload, prints every metric by name, and ends
// standard output with the result line.
func runChild(c config) error {
	rep, err := measureWorkload(c)
	if err != nil {
		return err
	}

	printChild(rep)
	if c.detail != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.detail, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}

	line := resultLine{Correct: rep.Correct, Attempted: max(1, rep.Ops), Failed: rep.FailedOps, Metrics: map[string]metricValue{}}
	if c.trace == 0 {
		for _, m := range endToEndMetrics {
			line.Metrics[m.name] = metricValue{Value: rep.EndToEnd[m.name].Median, Unit: m.unit}
		}
	} else {
		for _, m := range perLayerMetrics {
			line.Metrics[m.name] = metricValue{Value: rep.Layers.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return fmt.Errorf("%s: a correctness check failed", rep.Workload)
	}
	return nil
}

// metricDef names one metric of the contract. BENCHMARK.json repeats
// these tables; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"alloc_mib", "MiB", "lower", 0.12},
	{"peak_live_heap_mib", "MiB", "lower", 0.25},
}

// endToEndValue reads each end-to-end metric off one iteration.
var endToEndValue = map[string]func(iterResult) float64{
	"setup_s":            func(it iterResult) float64 { return it.SetupS },
	"wall_s":             func(it iterResult) float64 { return it.WallS },
	"records_per_s":      func(it iterResult) float64 { return float64(it.Records) / it.WallS },
	"alloc_mib":          func(it iterResult) float64 { return mib(it.AllocBytes) },
	"peak_live_heap_mib": func(it iterResult) float64 { return mib(it.PeakLive) },
}

// measureEndToEnd runs timed, untraced iterations until the time budget
// (or -runs) is spent and fills the five end-to-end distributions.
func measureEndToEnd(r *runner, c config, rep *childReport) ([]iterResult, error) {
	var timed []iterResult
	start := time.Now()
	for {
		if c.runs > 0 {
			if len(timed) >= c.runs {
				break
			}
		} else if len(timed) >= minTimedRuns && time.Since(start).Seconds() >= c.seconds {
			break
		}
		it, err := r.iterate(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s run %d: %w", r.w.name, len(timed)+1, err)
		}
		timed = append(timed, it)
	}
	// Extra setup-only samples, boxed to a tenth of the budget.
	var extraSetup []float64
	if r.w.eng != nil {
		extraStart := time.Now()
		for len(extraSetup) < maxExtraSetups && time.Since(extraStart).Seconds() < c.seconds/10 {
			s, err := r.setupOnly()
			if err != nil {
				return nil, fmt.Errorf("%s setup: %w", r.w.name, err)
			}
			extraSetup = append(extraSetup, s)
		}
	}
	rep.EndToEnd = map[string]dist{}
	for _, m := range endToEndMetrics {
		xs := make([]float64, len(timed), len(timed)+len(extraSetup))
		for i, it := range timed {
			xs[i] = endToEndValue[m.name](it)
		}
		if m.name == "setup_s" {
			xs = append(xs, extraSetup...)
		}
		rep.EndToEnd[m.name] = newDist(m.unit, xs)
	}
	return timed, nil
}

// simStats are the simulated (virtual-time) statistics of the warm-up
// run. They are deterministic per seed, printed exactly, and not gated:
// whether they are right is the accuracy experiments' business.
func simStats(ref iterResult, keep *collected) map[string]float64 {
	s := map[string]float64{
		"sim.events":     float64(ref.Events),
		"sim.pkt_hops":   float64(ref.Hops),
		"sim.completed":  float64(len(keep.fcts)),
		"sim.packet_ins": float64(ref.PacketIns),
		"sim.flow_mods":  float64(ref.FlowMods),
		"sim.mean_fct_s": 0,
		"sim.p99_fct_s":  0,
	}
	if len(keep.fcts) > 0 {
		var sum float64
		for _, f := range keep.fcts {
			sum += f
		}
		s["sim.mean_fct_s"] = sum / float64(len(keep.fcts))
		s["sim.p99_fct_s"] = percentile(keep.fcts, 99)
	}
	return s
}

// streamChecks verifies the record stream: every flow offered produced a
// record, every run of the workload produced the same ordered stream and
// event count, every session ended done, and — at the pinned seed and
// scale — the stream is the one expected.json records.
func streamChecks(c config, w *workload, ref iterResult, timed []iterResult) []check {
	var out []check
	out = append(out, check{
		Name: "records-equal-flows-offered", OK: ref.Records == ref.Offered && ref.Offered > 0,
		Detail: fmt.Sprintf("%d records, %d offered", ref.Records, ref.Offered),
	})
	same, sessions := true, !ref.SessionFailed
	detail := ""
	for i, it := range timed {
		if it.Records != ref.Records || it.Digest != ref.Digest || it.Events != ref.Events {
			same = false
			detail = fmt.Sprintf("run %d: %d/%s/%d events, warm-up %d/%s/%d", i+1,
				it.Records, digestHex(it.Digest), it.Events, ref.Records, digestHex(ref.Digest), ref.Events)
		}
		sessions = sessions && !it.SessionFailed
	}
	out = append(out, check{Name: "digest-repeats-across-runs", OK: same, Detail: detail})
	if w.eng == nil {
		out = append(out, check{Name: "sessions-end-done", OK: sessions})
	}
	exp, err := loadExpected()
	if err != nil {
		return append(out, check{Name: "digest-pinned", OK: false, Detail: "expected.json: " + err.Error()})
	}
	if c.seed == exp.Seed && c.scale == exp.Scale {
		e, ok := exp.Workloads[w.name]
		out = append(out, check{
			Name: "digest-pinned", OK: ok && e.Records == ref.Records && e.Digest == digestHex(ref.Digest),
			Detail: fmt.Sprintf("expected %d/%s, got %d/%s", e.Records, e.Digest, ref.Records, digestHex(ref.Digest)),
		})
	}
	return out
}

func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printChild prints every metric by name with its unit.
func printChild(rep *childReport) {
	fmt.Printf("== %s  seed %d  scale %g  (%s, %d cores, GOMAXPROCS %d, %s)\n", rep.Workload, rep.Seed, rep.Scale,
		rep.Host.CPUModel, rep.Host.Cores, rep.Host.GOMAXPROCS, rep.Host.GoVersion)
	fmt.Printf("   %s\n", rep.Why)
	for _, m := range endToEndMetrics {
		if d, ok := rep.EndToEnd[m.name]; ok {
			fmt.Printf("   %-22s %14.6g %-5s (min %.6g, max %.6g, n=%d; host time, tracing off)\n", m.name, d.Median, d.Unit, d.Min, d.Max, d.N)
		}
	}
	for _, k := range sortedKeys(rep.Sim) {
		fmt.Printf("   %-22s %14.9g       (simulated, not gated)\n", k, rep.Sim[k])
	}
	fmt.Printf("   %-22s %14d of %d flows offered; %d records, digest %s\n", "failed_ops", rep.FailedOps, rep.Ops, rep.Records, rep.Digest)
	for _, ck := range rep.Checks {
		verdict := "ok"
		if !ck.OK {
			verdict = "FAILED " + ck.Detail
		}
		fmt.Printf("   check %-34s %s\n", ck.Name, verdict)
	}
	if rep.Layers != nil {
		rep.Layers.print()
	}
}
