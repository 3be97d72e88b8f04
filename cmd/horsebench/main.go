// Command horsebench regenerates the Horse evaluation: every experiment of
// the E-suite (E1–E8, E10), printed as tables. Independent grid cells
// (fabric sizes, arrival rates, member counts, config rows, ablation arms)
// fan out across a worker pool. The quick suite's deterministic cells are
// pinned in internal/experiments/testdata/quick.golden; speed is measured
// by the benchmark/ module, not here.
//
// Usage:
//
//	horsebench                  # full suite (~minutes sequential, parallel by default)
//	horsebench -quick           # reduced suite (~seconds)
//	horsebench -only E3         # one experiment (with -quick, its quick grid)
//	horsebench -parallel 4      # bound the worker pool (default GOMAXPROCS)
//	horsebench -json out.json   # machine-readable BENCH_*.json report ("-" = stdout)
package main

import (
	"os"

	"horse/internal/benchcli"
)

func main() {
	os.Exit(benchcli.Main("horsebench", os.Args[1:], os.Stdout, os.Stderr))
}
