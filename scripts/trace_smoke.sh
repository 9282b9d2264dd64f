#!/usr/bin/env sh
# Trace smoke: prove the trace pipeline end to end.
#
#   1. --smoke sweep with --trace-out (plus the metrics and manifest
#      sinks): stdout must be byte-identical to the same sweep with no
#      observability at all, and the pooled run's metrics must carry
#      the overlay-cache and per-domain pool counters and the
#      overlay/build span's histogram.
#   2. dhtlab trace report on the result: every aggregate section the
#      tooling promises (spans, domains, per-geometry hop counts,
#      slowest spans) must be present.
#   3. The same sweep on the scalar routers (--no-batch --jobs 1):
#      the per-geometry hop histograms of its trace report must equal
#      step 2's line for line, since stdout carries only their mean.
#   4. dhtlab trace export-chrome: the converted file must carry the
#      Chrome trace-event envelope and complete-span events.
#   5. A traced storage --smoke sweep: its trace report must list the
#      storage/point span, which times each point of the sweep.
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

SWEEP="simulate --smoke -g xor --seed 7"
ARGS="$SWEEP --jobs 2"

fail() {
    echo "trace-smoke: FAIL: $1" >&2
    exit 1
}

# The "==== hops (per geometry) ====" section of a trace report.
hops_section() {
    awk '/^==== /{on = ($0 == "==== hops (per geometry) ====")} on' "$1"
}

echo "trace-smoke: 1/5 traced sweep vs observability-free baseline"
$DHTLAB $ARGS > "$WORK/baseline.txt"
$DHTLAB $ARGS --trace-out "$WORK/run.jsonl" \
    --metrics-out "$WORK/run.metrics.json" \
    --manifest "$WORK/run.manifest.json" --no-progress \
    > "$WORK/traced.txt" 2> "$WORK/traced.err"
diff "$WORK/baseline.txt" "$WORK/traced.txt" \
    || fail "stdout differs with tracing enabled"
[ -e "$WORK/run.jsonl" ] || fail "no trace file"
[ -e "$WORK/run.jsonl.tmp" ] && fail "trace close left run.jsonl.tmp behind"
$VALIDATE --manifest "$WORK/run.manifest.json" || fail "manifest failed validation"
$VALIDATE --metrics "$WORK/run.metrics.json" || fail "metrics snapshot failed validation"
for metric in cache/misses pool/domain1/tasks overlay/build_s; do
    grep -q "\"$metric\"" "$WORK/run.metrics.json" \
        || fail "metrics carry no $metric (metrics not enabled?)"
done

echo "trace-smoke: 2/5 trace report aggregates"
$DHTLAB trace report "$WORK/run.jsonl" > "$WORK/report.txt"
for section in "==== trace ====" "==== spans ====" "==== domains ====" \
               "==== hops (per geometry) ====" "==== slowest spans ===="; do
    grep -qF "$section" "$WORK/report.txt" || fail "report missing section '$section'"
done
grep -q "estimate/sweep" "$WORK/report.txt" || fail "report lists no estimate/sweep span"
grep -q "^xor " "$WORK/report.txt" || fail "report has no xor hop distribution"

echo "trace-smoke: 3/5 hop histograms, batch kernel vs scalar routers"
$DHTLAB $SWEEP --jobs 1 --no-batch --trace-out "$WORK/scalar.jsonl" --no-progress \
    > "$WORK/scalar.txt"
diff "$WORK/baseline.txt" "$WORK/scalar.txt" || fail "stdout differs under --no-batch"
$DHTLAB trace report "$WORK/scalar.jsonl" > "$WORK/scalar-report.txt"
hops_section "$WORK/report.txt" > "$WORK/hops.txt"
hops_section "$WORK/scalar-report.txt" > "$WORK/scalar-hops.txt"
grep -q "^xor " "$WORK/hops.txt" || fail "no xor hop histogram to compare"
diff "$WORK/hops.txt" "$WORK/scalar-hops.txt" \
    || fail "hop histograms differ between the batch kernel and --no-batch"

echo "trace-smoke: 4/5 Chrome trace-event export"
$DHTLAB trace export-chrome "$WORK/run.jsonl" -o "$WORK/run.chrome.json" > /dev/null
grep -q '"displayTimeUnit": "ms"' "$WORK/run.chrome.json" \
    || fail "chrome export missing the trace-event envelope"
grep -q '"ph": "X"' "$WORK/run.chrome.json" \
    || fail "chrome export carries no complete-span events"

echo "trace-smoke: 5/5 storage points traced"
$DHTLAB storage --smoke --seed 7 --trace-out "$WORK/storage.jsonl" --no-progress \
    > /dev/null
$DHTLAB trace report "$WORK/storage.jsonl" > "$WORK/storage-report.txt"
grep -q "^storage/point " "$WORK/storage-report.txt" \
    || fail "storage trace report lists no storage/point span"

echo "trace-smoke: OK (trace, report, hop histograms, chrome export, storage spans and sinks all consistent)"
