#!/usr/bin/env bash
# Fails when a -run or -fuzz test name in the Makefile or the CI workflows
# matches no test in the packages its command names. `go test -run X`
# that matches nothing passes silently, so a renamed or deleted test
# would drop out of a gate unnoticed. Every alternative of a -run
# pattern (split on |, top level only) must match at least one test,
# benchmark, fuzz target or example that `go test -list` reports.
#
# Usage: scripts/check-test-names.sh   (or: make test-names)
set -euo pipefail
cd "$(dirname "$0")/.."

files=(Makefile .github/workflows/ci.yml .github/workflows/nightly.yml)
status=0
checked=0

# check PATTERN PKG... reports each alternative of PATTERN that lists
# nothing in PKG...
check() {
	local pattern=$1
	shift
	local alt
	IFS='|' read -r -a alts <<<"${pattern%%/*}"
	for alt in "${alts[@]}"; do
		[ "$alt" = '^$' ] && continue
		checked=$((checked + 1))
		listed=$(go test -list "$alt" "$@" </dev/null | grep -Ev '^(ok|\?|FAIL)[[:space:]]' || true)
		if [ -z "$listed" ]; then
			echo "stale test name: '$alt' matches nothing in $*" >&2
			status=1
		fi
	done
}

while IFS= read -r line; do
	# The command's words, with the shell quoting of the gate files
	# removed; make's $$ is a literal $.
	eval "set -- ${line//\$\$/\$}"
	run="" fuzz="" pkgs=()
	while [ $# -gt 0 ]; do
		case $1 in
		-run) run=$2; shift ;;
		-run=*) run=${1#-run=} ;;
		-fuzz) fuzz=$2; shift ;;
		-fuzz=*) fuzz=${1#-fuzz=} ;;
		-C | -count | -fuzztime | -benchtime | -bench | -timeout) shift ;;
		.*) pkgs+=("$1") ;;
		esac
		shift
	done
	if [ -n "$run" ]; then check "$run" "${pkgs[@]}"; fi
	if [ -n "$fuzz" ]; then check "$fuzz" "${pkgs[@]}"; fi
done < <(grep -hE '^[[:space:]]*(run:[[:space:]]*)?(\$\(GO\)|go) test ' "${files[@]}" |
	sed -E 's/^[[:space:]]*(run:[[:space:]]*)?(\$\(GO\)|go) test //')

if [ "$status" -eq 0 ]; then
	echo "test names: $checked -run/-fuzz names in ${files[*]} all match a test"
fi
exit "$status"
