#!/usr/bin/env sh
# Checkpointed-sweep smoke: prove a point sweep (churn or storage) end
# to end. The same six steps run for either sweep; the table below
# holds what differs.
#
#   1. Baseline --smoke sweep; the table must carry the sweep's columns.
#   2. --jobs determinism: the same sweep on 1 and 2 domains must be
#      byte-identical (per-point seeds derive by index, not by domain).
#   3. CSV and JSON modes: header shape, one record per grid point.
#   4. Checkpointed run with manifest/metrics telemetry, then --resume:
#      stdout byte-identical to the baseline, telemetry schema-valid.
#   5. Deterministic mid-state resume: truncate the checkpoint to its
#      first half and resume — must reproduce the baseline and rewrite
#      the complete checkpoint.
#   6. Heavier sweep interrupted with SIGINT mid-run: must exit 130 (or
#      finish 0 if the machine outran the kill), leave a loadable
#      checkpoint and no .tmp turd, and resume byte-identically.
#
# Usage: scripts/sweep_smoke.sh churn|storage [path-to-dhtlab] [path-to-validate]
# CHURN_WORK / STORAGE_WORK, when set, names the work directory to use
# (and keep): CI points it somewhere uploadable so a failure leaves the
# artefacts behind for inspection. Exits non-zero on the first violated
# invariant.

set -eu

SWEEP=${1:-}
DHTLAB=${2:-_build/default/bin/dhtlab.exe}
VALIDATE=${3:-_build/default/bench/validate.exe}

case "$SWEEP" in
    churn)
        WORK=${CHURN_WORK:-}
        COLUMNS="routability prediction"
        CSV_HEADER="geometry,bits,session_mean,churn_rate"
        POINTS=10 # 2 session means over all five geometries
        JSON_FIELDS="prediction"
        METRICS=""
        HEAVY="churn -d 12 --sessions 2,4,8,16 --pairs 4000 --seed 7 --jobs 2"
        ;;
    storage)
        WORK=${STORAGE_WORK:-}
        COLUMNS="avail survival analytic"
        CSV_HEADER="geometry,bits,nodes,keys,mode,r,rq,wq,axis"
        POINTS=16 # R in {1, 2} over 2 qs and four geometries
        JSON_FIELDS="analytic survival"
        METRICS="storage/reads"
        HEAVY="storage -d 11 --nodes 1024 --keys 128 --reads 2000 -r 1,2,4 --qs 0.1,0.2,0.3,0.4 --trials 8 --seed 7 --jobs 2"
        ;;
    *)
        echo "usage: $0 churn|storage [path-to-dhtlab] [path-to-validate]" >&2
        exit 2
        ;;
esac

if [ -n "$WORK" ]; then
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/${SWEEP}_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

ARGS="$SWEEP --smoke --seed 7"

say() {
    echo "$SWEEP-smoke: $1"
}

fail() {
    echo "$SWEEP-smoke: FAIL: $1" >&2
    exit 1
}

say "1/6 baseline --smoke sweep"
$DHTLAB $ARGS --jobs 2 > "$WORK/baseline.txt"
for column in $COLUMNS; do
    grep -q "$column" "$WORK/baseline.txt" || fail "no $column column in the table"
done

say "2/6 --jobs determinism (1 vs 2 domains)"
$DHTLAB $ARGS --jobs 1 > "$WORK/jobs1.txt"
diff "$WORK/baseline.txt" "$WORK/jobs1.txt" \
    || fail "sweep output differs between --jobs 1 and --jobs 2"

say "3/6 csv and json modes"
$DHTLAB $ARGS --jobs 2 --csv > "$WORK/points.csv"
head -n 1 "$WORK/points.csv" | grep -q "^$CSV_HEADER" || fail "unexpected CSV header"
[ "$(wc -l < "$WORK/points.csv")" = $((POINTS + 1)) ] \
    || fail "expected $POINTS CSV rows plus the header"
$DHTLAB $ARGS --jobs 2 --json > "$WORK/points.json"
[ "$(wc -l < "$WORK/points.json")" = "$POINTS" ] || fail "expected $POINTS JSON records"
for field in $JSON_FIELDS; do
    grep -q "\"$field\"" "$WORK/points.json" || fail "JSON records missing the $field field"
done

say "4/6 checkpointed run + resume, diffed against the baseline"
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck.jsonl" --checkpoint-every 2 \
    --manifest "$WORK/run.manifest.json" --metrics-out "$WORK/run.metrics.json" \
    > "$WORK/checkpointed.txt"
diff "$WORK/baseline.txt" "$WORK/checkpointed.txt" \
    || fail "checkpointed stdout differs from the baseline"
[ -e "$WORK/ck.jsonl" ] || fail "no checkpoint file written"
[ -e "$WORK/ck.jsonl.tmp" ] && fail "atomic write left ck.jsonl.tmp behind"
grep -q "\"kind\": \"$SWEEP\"" "$WORK/ck.jsonl" || fail "checkpoint carries no $SWEEP records"
$VALIDATE --manifest "$WORK/run.manifest.json" || fail "manifest failed validation"
$VALIDATE --metrics "$WORK/run.metrics.json" || fail "metrics snapshot failed validation"
for metric in $METRICS; do
    grep -q "$metric" "$WORK/run.metrics.json" || fail "metrics carry no $metric counter"
done
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck.jsonl" --resume > "$WORK/resumed.txt"
diff "$WORK/baseline.txt" "$WORK/resumed.txt" \
    || fail "resumed stdout differs from the baseline"

say "5/6 deterministic mid-state resume from a truncated checkpoint"
TOTAL=$(wc -l < "$WORK/ck.jsonl")
head -n $((TOTAL / 2)) "$WORK/ck.jsonl" > "$WORK/ck_half.jsonl"
$DHTLAB $ARGS --jobs 2 --checkpoint "$WORK/ck_half.jsonl" --resume > "$WORK/resumed_half.txt"
diff "$WORK/baseline.txt" "$WORK/resumed_half.txt" \
    || fail "half-checkpoint resume differs from the baseline"
diff "$WORK/ck.jsonl" "$WORK/ck_half.jsonl" \
    || fail "resumed checkpoint file differs from the complete one"

say "6/6 heavier sweep interrupted by SIGINT, then resumed"
$DHTLAB $HEAVY > "$WORK/heavy_baseline.txt"
$DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --checkpoint-every 2 \
    > "$WORK/heavy_int.txt" 2> "$WORK/heavy_int.err" &
PID=$!
sleep 1
kill -INT "$PID" 2>/dev/null || true
STATUS=0
wait "$PID" || STATUS=$?
case "$STATUS" in
    130)
        say "    interrupted (exit 130), checkpoint flushed"
        grep -q "interrupted" "$WORK/heavy_int.err" \
            || fail "exit 130 without the interrupted message on stderr"
        ;;
    0)   say "    run outran the signal (exit 0); resume still covered below" ;;
    *)   fail "interrupted run exited $STATUS (expected 130 or 0)" ;;
esac
[ -e "$WORK/heavy.jsonl" ] || fail "no checkpoint file after interruption"
[ -e "$WORK/heavy.jsonl.tmp" ] && fail "atomic write left heavy.jsonl.tmp behind"
$DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --resume > "$WORK/heavy_resumed.txt"
diff "$WORK/heavy_baseline.txt" "$WORK/heavy_resumed.txt" \
    || fail "heavy resumed stdout differs from the uninterrupted baseline"

say "OK (determinism, checkpoint/resume and SIGINT recovery all hold)"
