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
	"time"

	"horse/internal/experiments"
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

	// Open a temp file next to the report target before the (potentially
	// minutes-long) run: a bad path fails fast, and neither a bad -only, a
	// mid-run panic, nor an interrupt ever truncates an existing report —
	// the rename happens only on success.
	var jsonFile *os.File
	if *jsonOut != "" && *jsonOut != "-" {
		f, err := os.CreateTemp(filepath.Dir(*jsonOut), filepath.Base(*jsonOut)+".tmp-")
		if err != nil {
			return fail(err)
		}
		defer os.Remove(f.Name()) // no-op after the success rename
		jsonFile = f
	}

	start := time.Now()
	tables, err := experiments.Run(experiments.Options{Parallel: *parallel}, *quick, *only)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start)

	// Wall-time columns are measured per cell while sibling cells may be
	// competing for the same cores; flag it so nobody reads contended
	// timings as the scalability result. Stderr, so tables stay
	// byte-identical across -parallel values.
	if *parallel != 1 && runtime.GOMAXPROCS(0) > 1 {
		fmt.Fprintf(stderr, "%s: note: wall-time columns measured with %d parallel workers; use -parallel 1 for uncontended timings\n", name, *parallel)
	}

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
	return 0
}
