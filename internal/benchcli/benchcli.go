// Package benchcli is the shared driver behind cmd/horsebench and the
// `horse experiments` subcommand: one flag set, one experiment-selection
// switch, one report-writing path, so the two binaries cannot drift.
package benchcli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"horse/internal/experiments"
	"horse/internal/simtime"
)

// Full-suite grid constants, in one place.
var (
	fullLeafCounts   = []int{4, 8, 16, 32}
	fullLambdas      = []float64{200, 1000, 5000}
	fullMemberCounts = []int{100, 200, 400}
	fullReplayHours  = 24
	fullE7Fractions  = []float64{0, 0.25, 0.5, 0.75, 1}
	fullE8MTBFs      = []simtime.Duration{500 * simtime.Millisecond, 2 * simtime.Second}
	fullE8Recoveries = []simtime.Duration{100 * simtime.Millisecond, 400 * simtime.Millisecond}
)

// Main parses args, runs the selected experiments, prints the tables to
// stdout, and optionally writes a horse-bench/v1 JSON report. name
// prefixes error messages. The returned code is the process exit code.
func Main(name string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run the reduced suite")
	only := fs.String("only", "", "run a single experiment (E1..E8, E10)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent experiment cells")
	jsonOut := fs.String("json", "", "write a horse-bench/v1 JSON report to this path (\"-\" = stdout)")
	compare := fs.String("compare", "", "gate this run against a baseline horse-bench/v1 report; regressions exit 1")
	compareTol := fs.Float64("compare-tol", DefaultCompareTol, "relative tolerance for -compare timing columns")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}

	opts := experiments.Options{Parallel: *parallel}
	pick, ok := map[string]func() []*experiments.Table{
		"": func() []*experiments.Table {
			if *quick {
				return experiments.QuickWith(opts)
			}
			return experiments.AllWith(opts)
		},
		"E1": func() []*experiments.Table { return []*experiments.Table{experiments.E1With(opts)} },
		"E2": func() []*experiments.Table {
			return []*experiments.Table{experiments.E2With(opts, fullLeafCounts, fullLambdas)}
		},
		"E3": func() []*experiments.Table { return []*experiments.Table{experiments.E3With(opts)} },
		"E4": func() []*experiments.Table {
			return []*experiments.Table{experiments.E4With(opts, fullMemberCounts, fullReplayHours)}
		},
		"E5": func() []*experiments.Table { return []*experiments.Table{experiments.E5With(opts)} },
		"E6": func() []*experiments.Table { return []*experiments.Table{experiments.E6With(opts)} },
		"E7": func() []*experiments.Table {
			return []*experiments.Table{experiments.E7With(opts, fullE7Fractions)}
		},
		"E8": func() []*experiments.Table {
			return []*experiments.Table{experiments.E8With(opts, fullE8MTBFs, fullE8Recoveries)}
		},
		"E10": func() []*experiments.Table {
			if *quick {
				return []*experiments.Table{experiments.E10QuickWith(opts)}
			}
			return []*experiments.Table{experiments.E10With(opts)}
		},
	}[strings.ToUpper(*only)]
	if !ok {
		return fail(fmt.Errorf("unknown experiment %q", *only))
	}

	// Open a temp file next to the report target after flag validation but
	// before the (potentially minutes-long) run: a bad path fails fast, and
	// neither a bad -only, a mid-run panic, nor an interrupt ever truncates
	// an existing report — the rename happens only on success.
	var jsonFile *os.File
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.CreateTemp(filepath.Dir(*jsonOut), filepath.Base(*jsonOut)+".tmp-")
		if err != nil {
			return fail(err)
		}
		defer os.Remove(f.Name()) // no-op after the success rename
		jsonFile = f
	}

	// Wall-time columns are measured per cell while sibling cells may be
	// competing for the same cores; flag it so nobody reads contended
	// timings as the scalability result. Stderr, so tables stay
	// byte-identical across -parallel values.
	if *parallel != 1 && runtime.GOMAXPROCS(0) > 1 {
		fmt.Fprintf(stderr, "%s: note: wall-time columns measured with %d parallel workers; use -parallel 1 for uncontended timings\n", name, *parallel)
	}

	// Load the comparison baseline before the run: a bad path fails fast.
	var baseline *experiments.Report
	if *compare != "" {
		var err error
		if baseline, err = LoadReport(*compare); err != nil {
			return fail(err)
		}
		// A single-experiment run gates just that table: restrict the
		// baseline to it so the other tables don't read as lost coverage,
		// and drop the suite wall — one experiment is not the whole suite.
		if *only != "" {
			id := strings.ToUpper(*only)
			kept := baseline.Tables[:0]
			for _, t := range baseline.Tables {
				if t.ID == id {
					kept = append(kept, t)
				}
			}
			if len(kept) == 0 {
				return fail(fmt.Errorf("baseline %s has no %s table to gate against", *compare, id))
			}
			baseline.Tables = kept
			baseline.WallMS = 0
		}
	}

	start := time.Now()
	tables := pick()
	wall := time.Since(start)

	if *jsonOut != "-" {
		for _, t := range tables {
			t.Fprint(func(format string, a ...interface{}) { fmt.Fprintf(stdout, format, a...) })
		}
	}
	rep := experiments.NewReport(tables, *parallel, wall)
	if *jsonOut != "" {
		if jsonFile == nil {
			if err := rep.WriteJSON(stdout); err != nil {
				return fail(err)
			}
		} else {
			if err := rep.WriteJSON(jsonFile); err != nil {
				jsonFile.Close()
				return fail(err)
			}
			if err := jsonFile.Close(); err != nil {
				return fail(err)
			}
			if err := os.Rename(jsonFile.Name(), *jsonOut); err != nil {
				return fail(err)
			}
		}
	}
	if baseline != nil {
		if baseline.Parallel != rep.Parallel {
			fmt.Fprintf(stderr, "%s: note: baseline ran -parallel %d, this run %d; timing columns not gated (deterministic columns still are)\n",
				name, baseline.Parallel, rep.Parallel)
		}
		if why := FingerprintMismatch(baseline, rep); why != "" {
			fmt.Fprintf(stderr, "%s: warning: host fingerprint mismatch — %s; timing columns not gated (deterministic columns still are)\n",
				name, why)
		}
		if bad := Compare(baseline, rep, *compareTol); len(bad) > 0 {
			fmt.Fprintf(stderr, "%s: benchmark regression vs %s:\n", name, *compare)
			for _, v := range bad {
				fmt.Fprintf(stderr, "  %s\n", v)
			}
			return 1
		}
		fmt.Fprintf(stderr, "%s: no benchmark regression vs %s (tolerance %.0f%%)\n",
			name, *compare, *compareTol*100)
	}
	return 0
}
