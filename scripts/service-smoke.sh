#!/usr/bin/env bash
# End-to-end daemon smoke (the CI service-smoke job, runnable locally as
# `make service-smoke`): start horsed on a unix socket, submit a small
# fat-tree session through horsectl and stream its records, cancel a
# heavy second session mid-run, then SIGTERM the daemon and require a
# clean drain.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/horsed" ./cmd/horsed
go build -o "$workdir/horsectl" ./cmd/horsectl

sock="$workdir/horsed.sock"
"$workdir/horsed" -socket "$sock" -max-sessions 2 -max-workers 4 \
    2>"$workdir/horsed.log" &
daemon_pid=$!

for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.05
done
if ! [ -S "$sock" ]; then
    echo "service-smoke: horsed socket never appeared" >&2
    cat "$workdir/horsed.log" >&2
    exit 1
fi

ctl() { "$workdir/horsectl" -addr "unix:$sock" "$@"; }

# 1. A streamed fat-tree session: records must arrive over the wire.
cat >"$workdir/spec.json" <<'EOF'
{
  "topology": {"kind": "fattree", "k": 4},
  "workload": {"poisson": {"seed": 7, "lambda": 200, "horizon_ns": 1000000000,
    "size": {"kind": "pareto", "x_min": 100000, "alpha": 1.3},
    "tcp_fraction": 0.8, "cbr_rate_bps": 10000000}},
  "options": {"fidelity": "flow", "controller": [{"kind": "ecmp"}], "miss": "controller"},
  "until_ns": 3000000000
}
EOF
ctl submit -name smoke -watch -flows "$workdir/flows.csv" "$workdir/spec.json" \
    2>"$workdir/submit.log"
records=$(($(wc -l <"$workdir/flows.csv") - 1))
if [ "$records" -le 0 ]; then
    echo "service-smoke: no records streamed" >&2
    cat "$workdir/submit.log" >&2
    exit 1
fi
echo "service-smoke: streamed $records records"

# 2. The same session with "stream": true inside workload: a v1 field
# the daemon accepts and ignores (every session streams its generator),
# so it must stream the identical record set over the wire.
sed 's/"workload": {"poisson"/"workload": {"stream": true, "poisson"/' \
    "$workdir/spec.json" >"$workdir/spec-stream.json"
ctl submit -name smoke-stream -watch -flows "$workdir/flows-stream.csv" \
    "$workdir/spec-stream.json" 2>"$workdir/submit-stream.log"
if ! cmp -s "$workdir/flows.csv" "$workdir/flows-stream.csv"; then
    echo "service-smoke: workload.stream changed the records" >&2
    cat "$workdir/submit-stream.log" >&2
    exit 1
fi
echo "service-smoke: workload.stream left the records unchanged"

# 3. A lossy-link session (default Bernoulli model, a mid-run
# Gilbert–Elliott degrade/restore window) submitted over the wire must
# stream records byte-identical to the same spec run in-process with
# `horsectl run` — the determinism contract across the service boundary,
# link models included.
ctl submit -name lossy -watch -flows "$workdir/flows-lossy.csv" \
    examples/specs/degraded-links.json 2>"$workdir/submit-lossy.log"
"$workdir/horsectl" run -flows "$workdir/flows-lossy-local.csv" \
    examples/specs/degraded-links.json 2>"$workdir/run-lossy.log"
if ! cmp -s "$workdir/flows-lossy.csv" "$workdir/flows-lossy-local.csv"; then
    echo "service-smoke: lossy-link wire records differ from in-process run" >&2
    cat "$workdir/submit-lossy.log" "$workdir/run-lossy.log" >&2
    exit 1
fi
lossy=$(($(wc -l <"$workdir/flows-lossy.csv") - 1))
if [ "$lossy" -le 0 ]; then
    echo "service-smoke: lossy-link session streamed no records" >&2
    cat "$workdir/submit-lossy.log" >&2
    exit 1
fi
echo "service-smoke: lossy-link wire run matched in-process ($lossy records)"

# 4. A heavy session canceled mid-run: the daemon must report the
# canceled state with a partial-but-consistent summary.
cat >"$workdir/heavy.json" <<'EOF'
{
  "topology": {"kind": "leafspine", "leaves": 4, "spines": 2, "hosts": 4},
  "workload": {"poisson": {"seed": 42, "lambda": 4000, "horizon_ns": 60000000000,
    "size": {"kind": "pareto", "x_min": 100000, "alpha": 1.3},
    "tcp_fraction": 0.8, "cbr_rate_bps": 10000000}},
  "options": {"fidelity": "flow", "controller": [{"kind": "ecmp"}], "miss": "controller"},
  "until_ns": 120000000000
}
EOF
sid=$(ctl submit -name heavy "$workdir/heavy.json")
sleep 0.3
ctl cancel "$sid" >/dev/null
state=""
for _ in $(seq 1 100); do
    state=$(ctl status "$sid" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p')
    [ "$state" = "canceled" ] && break
    sleep 0.05
done
if [ "$state" != "canceled" ]; then
    echo "service-smoke: session $sid state=$state, want canceled" >&2
    exit 1
fi
echo "service-smoke: canceled $sid mid-run"

# 5. Graceful shutdown: SIGTERM must drain and exit zero.
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
if [ "$rc" -ne 0 ]; then
    echo "service-smoke: horsed exited $rc on SIGTERM" >&2
    cat "$workdir/horsed.log" >&2
    exit 1
fi
if ! grep -q "drained" "$workdir/horsed.log"; then
    echo "service-smoke: no drain message in horsed log" >&2
    cat "$workdir/horsed.log" >&2
    exit 1
fi
echo "service-smoke: clean shutdown"
