#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. This is
# the invocation the pipeline uses (BENCHMARK.json's command):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Without --workload it runs the whole suite:
#
#   bash benchmark/run.sh -seed 1 -json out.json
#   bash benchmark/run.sh -selfcheck
#   bash benchmark/run.sh -only flow.ixp-replay -cpuprofile cpu.prof -memprofile mem.prof
#
# -cpuprofile/-memprofile pass through; in suite mode each workload and
# pass gets its own file (<path>.<workload>.trace<0|1>).
#
# Everything the build and the run write — the Go build cache, the binary,
# sockets, child reports — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
mkdir -p .bench_build

(
	cd "$here"
	GOCACHE="$root/.bench_build/gocache" \
	GOMODCACHE="$root/.bench_build/gomodcache" \
	XDG_CONFIG_HOME="$root/.bench_build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$root/.bench_build/horse-benchmark" .
) >&2

# The workdir stays relative: unix socket paths are capped near 100 bytes.
exec env GOMAXPROCS=2 .bench_build/horse-benchmark -workdir .bench_build "$@"
