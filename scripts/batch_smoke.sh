#!/usr/bin/env sh
# Batch smoke: prove the batched routing kernel end to end.
#
#   1. Identity: a flat-backend sweep routed through the batch kernels
#      must produce stdout byte-identical to the same sweep with
#      --no-batch (the scalar router), per geometry and at both one and
#      several worker domains. This is the bit-identity contract the
#      kernels are built around — same outcomes, hop counts and PRNG
#      draws, so the batch path is a pure speed-up, never a fork.
#   2. Evidence: the smoke bench must emit a batch section whose JSON
#      passes schema validation, with a positive speedup recorded for
#      every geometry.
#
# Usage: scripts/batch_smoke.sh [path-to-dhtlab] [path-to-validate]
# BATCH_WORK, when set, names the work directory to use (and keep) so
# CI can upload it on failure. Exits non-zero on the first violation.

set -eu

DHTLAB=${1:-_build/default/bin/dhtlab.exe}
VALIDATE=${2:-_build/default/bench/validate.exe}
if [ -n "${BATCH_WORK:-}" ]; then
    WORK=$BATCH_WORK
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/batch_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

fail() {
    echo "batch-smoke: FAIL: $1" >&2
    exit 1
}

echo "batch-smoke: 1/2 batch vs scalar byte-identity (flat backend)"
# Rows are geometry:bits:q. Hypercube also runs at d = 16, where its
# routes are long enough to draw many reservoir samples per pair.
for row in ring:8:0.25 xor:8:0.25 tree:8:0.25 hypercube:8:0.25 symphony:8:0.25 \
           hypercube:16:0.1 hypercube:16:0.4; do
    g=${row%%:*}
    d=${row#*:}
    q=${d#*:}
    d=${d%%:*}
    for jobs in 1 2; do
        OUT="$WORK/$g-d$d-q$q.$jobs"
        ARGS="simulate -g $g -d $d -q $q --trials 2 --pairs 80 \
              --seed 42 --overlay flat --jobs $jobs"
        $DHTLAB $ARGS > "$OUT.batch.txt"
        $DHTLAB $ARGS --no-batch > "$OUT.scalar.txt"
        diff "$OUT.batch.txt" "$OUT.scalar.txt" \
            || fail "batch and scalar stdout differ ($g -d $d -q $q, $jobs jobs)"
        grep -q "routability" "$OUT.batch.txt" \
            || fail "sweep output carries no routability line ($g -d $d -q $q)"
    done
done

echo "batch-smoke: 2/2 smoke bench batch section validates"
BENCH_JSON=$(ls BENCH_*.json 2>/dev/null | head -n 1)
[ -n "$BENCH_JSON" ] || fail "no BENCH_*.json (run make bench-smoke first)"
$VALIDATE "$BENCH_JSON" || fail "bench JSON failed validation"
grep -q '"batch"' "$BENCH_JSON" || fail "bench JSON has no batch section"

echo "batch-smoke: OK (batch kernels bit-identical to the scalar router)"
