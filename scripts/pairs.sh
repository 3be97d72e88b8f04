#!/usr/bin/env bash
# Compares one benchmark workload between a parent revision and the
# working tree in interleaved pairs, the way a perf claim is argued.
#
# Usage: scripts/pairs.sh <parent-rev> <workload> [pairs] [seconds]
#
#   scripts/pairs.sh HEAD~1 flow.stream-250k 10 15
#
# It builds the benchmark binary once from <parent-rev> and once from the
# working tree. The parent's sources are exported with git archive to a
# temporary directory outside the checkout (a worktree would register in
# .git, and Go sources under the checkout are read by tests that walk
# it), removed on exit. Pair i runs both sides on seed i (1..pairs, default
# 10) for [seconds] each (default 15) at --trace 0; odd pairs run the
# parent first, even pairs the working tree. For every end-to-end metric
# it prints each side's median and quartiles, the change in the medians,
# the parent's IQR as a share of its median, and on how many pairs the
# working tree was better. The per-pair values go to
# .bench_build/pairs/<workload>.tsv; the binaries and the run directories
# stay under .bench_build/pairs/ too.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build/pairs
mkdir -p "$out/wd-parent" "$out/wd-change"
src=$(mktemp -d)
trap 'rm -rf "$src"' EXIT
git archive "$rev" | tar -x -C "$src"

# build SRC BIN builds the benchmark of the checkout at SRC into BIN, with
# the flags benchmark/run.sh uses.
build() {
	(
		cd "$1/benchmark"
		GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
			go build -o "$2" .
	)
}
build "$src" "$out/parent"
build "$root" "$out/change"

# run SIDE SEED prints the side's metrics on the seed as "name value"
# lines, from the JSON result the benchmark prints last.
run() {
	(cd "$out/wd-$1" && GOMAXPROCS=2 "$out/$1" -workdir . -workload "$workload" \
		-seed "$2" -seconds "$seconds" -trace 0 | tail -n 1) |
		grep -o '"[a-z_]*":{"value":[^,}]*' | sed 's/"\([a-z_]*\)":{"value":/\1 /' |
		sed "s/^/$1 $2 /"
}

tsv=$out/$workload.tsv
: >"$tsv"
for seed in $(seq 1 "$pairs"); do
	if [ $((seed % 2)) -eq 1 ]; then
		sides="parent change"
	else
		sides="change parent"
	fi
	for side in $sides; do
		run "$side" "$seed" >>"$tsv"
	done
	echo "pair $seed of $pairs done" >&2
done

echo "$workload: $pairs pairs at ${seconds} s, parent $rev against the working tree"
printf "%-19s %-30s %-30s %8s %10s %6s\n" metric "parent median [q1, q3]" "change median [q1, q3]" median "parent IQR" wins
awk '
function q(v, n, p,    h, i) { # quantile p of sorted v[1..n], linear interpolation
	h = (n - 1) * p + 1
	i = int(h)
	return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
}
function sorted(side, m, v,    n, s, i, j, t) {
	n = 0
	for (s = 1; s <= seeds; s++) if ((side, m, s) in val) v[++n] = val[side, m, s]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return n
}
function spread(v, n) { return sprintf("%.4g [%.4g, %.4g]", q(v, n, 0.5), q(v, n, 0.25), q(v, n, 0.75)) }
{ val[$1, $3, $2] = $4; metric[$3] = 1; if ($2 > seeds) seeds = $2 }
END {
	for (m in metric) {
		np = sorted("parent", m, p); nc = sorted("change", m, c)
		if (np == 0 || nc == 0) continue
		higher = m ~ /per_s$/
		wins = 0
		for (s = 1; s <= seeds; s++) {
			a = val["parent", m, s]; b = val["change", m, s]
			if ((higher && b > a) || (!higher && b < a)) wins++
		}
		pm = q(p, np, 0.5)
		printf "%-19s %-30s %-30s %+7.1f%% %9.1f%% %3d/%d\n", m, spread(p, np), spread(c, nc),
			pm ? 100 * (q(c, nc, 0.5) - pm) / pm : 0, pm ? 100 * (q(p, np, 0.75) - q(p, np, 0.25)) / pm : 0, wins, seeds
	}
}' "$tsv" | sort
