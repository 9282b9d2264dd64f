#!/usr/bin/env sh
# Trace smoke: prove the trace pipeline end to end.
#
#   1. --smoke sweep with --trace-out (plus the metrics/manifest sinks
#      and a sub-second heartbeat): stdout must be byte-identical to
#      the same sweep with no observability at all, and the pooled
#      run's metrics must carry the overlay-cache and per-domain pool
#      counters.
#   2. dhtlab trace report on the result: every aggregate section the
#      tooling promises (spans, domains, per-geometry hop counts,
#      slowest spans) must be present, and at least one heartbeat must
#      have been recorded.
#   3. dhtlab trace export-chrome: the converted file must carry the
#      Chrome trace-event envelope and complete-span events.
#
# Usage: scripts/trace_smoke.sh [path-to-dhtlab] [path-to-validate]
# SMOKE_WORK, when set, names a directory to keep the artefacts in
# (under SMOKE_WORK/trace) so CI can upload them on failure. Exits
# non-zero on the first violation.

set -eu

DHTLAB=${1:-_build/default/bin/dhtlab.exe}
VALIDATE=${2:-_build/default/bench/validate.exe}
if [ -n "${SMOKE_WORK:-}" ]; then
    WORK=$SMOKE_WORK/trace
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/trace_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

ARGS="simulate --smoke -g xor --seed 7 --jobs 2"

fail() {
    echo "trace-smoke: FAIL: $1" >&2
    exit 1
}

echo "trace-smoke: 1/3 traced sweep vs observability-free baseline"
$DHTLAB $ARGS > "$WORK/baseline.txt"
$DHTLAB $ARGS --trace-out "$WORK/run.jsonl" --obs-interval 0.1 \
    --metrics-out "$WORK/run.metrics.json" --metrics-prom "$WORK/run.prom" \
    --manifest "$WORK/run.manifest.json" --no-progress \
    > "$WORK/traced.txt" 2> "$WORK/traced.err"
diff "$WORK/baseline.txt" "$WORK/traced.txt" \
    || fail "stdout differs with tracing enabled"
[ -e "$WORK/run.jsonl" ] || fail "no trace file"
[ -e "$WORK/run.jsonl.tmp" ] && fail "trace close left run.jsonl.tmp behind"
$VALIDATE --manifest "$WORK/run.manifest.json" || fail "manifest failed validation"
$VALIDATE --metrics "$WORK/run.metrics.json" || fail "metrics snapshot failed validation"
for counter in cache/misses pool/domain1/tasks; do
    grep -q "\"$counter\"" "$WORK/run.metrics.json" \
        || fail "metrics carry no $counter counter (metrics not enabled?)"
done
grep -q '^# TYPE dhtlab_' "$WORK/run.prom" \
    || fail "Prometheus textfile carries no dhtlab_ family"

echo "trace-smoke: 2/3 trace report aggregates"
$DHTLAB trace report "$WORK/run.jsonl" > "$WORK/report.txt"
for section in "==== trace ====" "==== spans ====" "==== domains ====" \
               "==== hops (per geometry) ====" "==== slowest spans ===="; do
    grep -qF "$section" "$WORK/report.txt" || fail "report missing section '$section'"
done
grep -q "estimate/sweep" "$WORK/report.txt" || fail "report lists no estimate/sweep span"
grep -q "^xor " "$WORK/report.txt" || fail "report has no xor hop distribution"

echo "trace-smoke: 3/3 Chrome trace-event export"
$DHTLAB trace export-chrome "$WORK/run.jsonl" -o "$WORK/run.chrome.json" > /dev/null
grep -q '"displayTimeUnit": "ms"' "$WORK/run.chrome.json" \
    || fail "chrome export missing the trace-event envelope"
grep -q '"ph": "X"' "$WORK/run.chrome.json" \
    || fail "chrome export carries no complete-span events"

echo "trace-smoke: OK (trace, report, chrome export and sinks all consistent)"
