#!/usr/bin/env sh
# Sweep smoke table: prove one dhtlab sweep end to end. Each row of the
# table below is one sweep; a shared step runs for a row only when the
# row sets that step's variables, and checks that belong to one sweep
# alone run after the shared steps as the row's extra commands.
#
#   1. Baseline sweep at the first of the row's JOBS counts; the output
#      must match every pattern in EXPECT.
#   2. Determinism: the same sweep at every other JOBS count, and with
#      --no-batch (the scalar routers) at SCALAR_JOBS, must be
#      byte-identical to the baseline, per-node loadmap included when
#      the row sets LOADMAP.
#   3. CSV and JSON modes (CSV_HEADER): header shape, POINTS records,
#      every JSON_FIELDS key present.
#   4. Checkpointed run with manifest/metrics telemetry, then --resume
#      (CHECKPOINT, a pattern the checkpoint's records carry): stdout
#      byte-identical to the baseline, telemetry schema-valid and
#      recording exit_status 0, every METRICS counter present.
#   5. Deterministic mid-state resume: truncate the checkpoint to its
#      first half and resume — must reproduce the baseline and rewrite
#      the complete checkpoint.
#   6. HEAVY sweep interrupted with SIGINT mid-run: must exit 130 (or
#      finish 0 if the machine outran the kill) and leave a loadable
#      checkpoint and telemetry that validates and records that status,
#      no .tmp turd; the resumed run must be byte-identical to an
#      uninterrupted one and record exit_status 0.
#
# The simulate row's extras also guard memory: a d = 22 Symphony run
# must record a peak_rss_kb below 48 MiB in its manifest.
#
# Usage: scripts/sweep_smoke.sh simulate|record|hotspots|churn|percolation|storage
#        [path-to-dhtlab] [path-to-validate]
# SMOKE_WORK, when set, names a directory to keep the artefacts in (the
# row's are in SMOKE_WORK/<row>, emptied first): CI points it somewhere
# uploadable so a failure leaves them behind for inspection. Exits
# non-zero on the first violated invariant.

set -eu

ROW=${1:-}
DHTLAB=${2:-_build/default/bin/dhtlab.exe}
VALIDATE=${3:-_build/default/bench/validate.exe}

SCALAR_JOBS="" LOADMAP="" EXPECT="" CSV_HEADER="" CHECKPOINT="" METRICS="" HEAVY=""
case "$ROW" in
    simulate)
        # Faults injected into a fifth of the trials, each retried once.
        ARGS="simulate --smoke -g xor --seed 7 --trial-retries 1 --inject-fault trial:0.2:9"
        JOBS=2
        SCALAR_JOBS=2
        EXPECT="routability"
        CHECKPOINT='"status": "ok"'
        HEAVY="simulate -g xor -d 12 --trials 6 --pairs 15000 --seed 7 --jobs 2"
        ;;
    record)
        ARGS="simulate -g record:h=4 -d 8 -q 0.25 --trials 2 --pairs 80 --seed 42"
        JOBS="1 8"
        SCALAR_JOBS=8
        EXPECT="routability"
        ;;
    hotspots)
        ARGS="hotspots --smoke --no-progress --csv"
        JOBS="1 8"
        SCALAR_JOBS=4
        LOADMAP=yes
        EXPECT="^routing, ^storage,"
        ;;
    churn)
        ARGS="churn --smoke --seed 7"
        JOBS="2 1"
        EXPECT="routability prediction"
        CSV_HEADER="geometry,bits,session_mean,churn_rate"
        POINTS=10 # 2 session means over all five geometries
        JSON_FIELDS="prediction"
        CHECKPOINT='"kind": "churn"'
        HEAVY="churn -d 12 --sessions 2,4,8,16 --pairs 4000 --seed 7 --jobs 2"
        ;;
    percolation)
        # Every geometry's trials fan out on the pool, and flat tables
        # route through the batch kernel unless --no-batch.
        ARGS="percolation -d 10 --trials 2 --pairs 1000 --seed 7 --no-progress"
        JOBS="1 2"
        SCALAR_JOBS=2
        EXPECT="connectivity routability"
        ;;
    storage)
        ARGS="storage --smoke --seed 7"
        JOBS="2 1"
        SCALAR_JOBS=2
        EXPECT="avail survival analytic"
        CSV_HEADER="geometry,bits,nodes,keys,mode,r,rq,wq,axis"
        POINTS=16 # R in {1, 2} over 2 qs and four geometries
        JSON_FIELDS="analytic survival"
        CHECKPOINT='"kind": "storage"'
        METRICS="storage/reads"
        HEAVY="storage -d 11 --nodes 1024 --keys 128 --reads 2000 -r 1,2,4 --qs 0.1,0.2,0.3,0.4 --trials 8 --seed 7 --jobs 2"
        ;;
    *)
        echo "usage: $0 simulate|record|hotspots|churn|percolation|storage [path-to-dhtlab] [path-to-validate]" >&2
        exit 2
        ;;
esac
BASE_JOBS=${JOBS%% *}

if [ -n "${SMOKE_WORK:-}" ]; then
    WORK=$SMOKE_WORK/$ROW
    rm -rf "$WORK"
    mkdir -p "$WORK"
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/${ROW}_smoke.XXXXXX")
    trap 'rm -rf "$WORK"' EXIT INT TERM
fi

say() {
    echo "$ROW-smoke: $1"
}

fail() {
    echo "$ROW-smoke: FAIL: $1" >&2
    exit 1
}

# sweep NAME FLAGS...: the row's sweep with FLAGS, stdout to WORK/NAME.txt
# and, when the row sets LOADMAP, the loadmap to WORK/NAME.loadmap.csv.
sweep() {
    name=$1
    shift
    if [ -n "$LOADMAP" ]; then
        set -- "$@" --loadmap "$WORK/$name.loadmap.csv"
    fi
    $DHTLAB $ARGS "$@" > "$WORK/$name.txt"
}

# same A B WHAT: sweeps A and B wrote byte-identical files.
same() {
    diff "$WORK/$1.txt" "$WORK/$2.txt" || fail "output differs $3"
    if [ -n "$LOADMAP" ]; then
        diff "$WORK/$1.loadmap.csv" "$WORK/$2.loadmap.csv" || fail "loadmap differs $3"
    fi
}

# telemetry NAME STATUS: the run's NAME.manifest.json and NAME.metrics.json
# exist without a .tmp turd, validate, and record exit_status STATUS.
telemetry() {
    for file in "$WORK/$1.manifest.json" "$WORK/$1.metrics.json"; do
        [ -e "$file" ] || fail "no $file"
        [ ! -e "$file.tmp" ] || fail "atomic write left $file.tmp behind"
    done
    $VALIDATE --manifest "$WORK/$1.manifest.json" || fail "$1 manifest failed validation"
    $VALIDATE --metrics "$WORK/$1.metrics.json" || fail "$1 metrics snapshot failed validation"
    grep -q "\"exit_status\": $2," "$WORK/$1.manifest.json" \
        || fail "$1 manifest does not record exit_status $2"
}

say "1/6 baseline sweep (--jobs $BASE_JOBS)"
sweep baseline --jobs "$BASE_JOBS"
for pattern in $EXPECT; do
    grep -q "$pattern" "$WORK/baseline.txt" || fail "no '$pattern' in the baseline output"
done

say "2/6 determinism across --jobs ($JOBS) and --no-batch (${SCALAR_JOBS:-n/a})"
for jobs in ${JOBS#$BASE_JOBS}; do
    sweep "jobs$jobs" --jobs "$jobs"
    same baseline "jobs$jobs" "between --jobs $BASE_JOBS and --jobs $jobs"
done
if [ -n "$SCALAR_JOBS" ]; then
    sweep scalar --jobs "$SCALAR_JOBS" --no-batch
    same baseline scalar "between batch and --no-batch"
fi

if [ -n "$CSV_HEADER" ]; then
    say "3/6 csv and json modes"
    $DHTLAB $ARGS --jobs "$BASE_JOBS" --csv > "$WORK/points.csv"
    head -n 1 "$WORK/points.csv" | grep -q "^$CSV_HEADER" || fail "unexpected CSV header"
    [ "$(wc -l < "$WORK/points.csv")" = $((POINTS + 1)) ] \
        || fail "expected $POINTS CSV rows plus the header"
    $DHTLAB $ARGS --jobs "$BASE_JOBS" --json > "$WORK/points.json"
    [ "$(wc -l < "$WORK/points.json")" = "$POINTS" ] || fail "expected $POINTS JSON records"
    for field in $JSON_FIELDS; do
        grep -q "\"$field\"" "$WORK/points.json" || fail "JSON records missing the $field field"
    done
fi

if [ -n "$CHECKPOINT" ]; then
    say "4/6 checkpointed run + resume, diffed against the baseline"
    sweep checkpointed --jobs "$BASE_JOBS" --checkpoint "$WORK/ck.jsonl" --checkpoint-every 2 \
        --manifest "$WORK/run.manifest.json" --metrics-out "$WORK/run.metrics.json"
    same baseline checkpointed "with --checkpoint"
    [ -e "$WORK/ck.jsonl" ] || fail "no checkpoint file written"
    [ ! -e "$WORK/ck.jsonl.tmp" ] || fail "atomic write left ck.jsonl.tmp behind"
    grep -q "$CHECKPOINT" "$WORK/ck.jsonl" || fail "checkpoint carries no $CHECKPOINT records"
    telemetry run 0
    for metric in $METRICS; do
        grep -q "$metric" "$WORK/run.metrics.json" || fail "metrics carry no $metric counter"
    done
    sweep resumed --jobs "$BASE_JOBS" --checkpoint "$WORK/ck.jsonl" --resume
    same baseline resumed "after --resume"

    say "5/6 deterministic mid-state resume from a truncated checkpoint"
    TOTAL=$(wc -l < "$WORK/ck.jsonl")
    head -n $((TOTAL / 2)) "$WORK/ck.jsonl" > "$WORK/ck_half.jsonl"
    sweep resumed_half --jobs "$BASE_JOBS" --checkpoint "$WORK/ck_half.jsonl" --resume
    same baseline resumed_half "after resuming a half checkpoint"
    diff "$WORK/ck.jsonl" "$WORK/ck_half.jsonl" \
        || fail "resumed checkpoint file differs from the complete one"
fi

if [ -n "$HEAVY" ]; then
    say "6/6 heavier sweep interrupted by SIGINT, then resumed"
    $DHTLAB $HEAVY > "$WORK/heavy_baseline.txt"
    $DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --checkpoint-every 2 \
        --manifest "$WORK/int.manifest.json" --metrics-out "$WORK/int.metrics.json" \
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
    [ ! -e "$WORK/heavy.jsonl.tmp" ] || fail "atomic write left heavy.jsonl.tmp behind"
    telemetry int "$STATUS"
    $DHTLAB $HEAVY --checkpoint "$WORK/heavy.jsonl" --resume \
        --manifest "$WORK/res.manifest.json" --metrics-out "$WORK/res.metrics.json" \
        > "$WORK/heavy_resumed.txt"
    diff "$WORK/heavy_baseline.txt" "$WORK/heavy_resumed.txt" \
        || fail "heavy resumed stdout differs from the uninterrupted baseline"
    telemetry res 0
fi

case "$ROW" in
    simulate)
        say "extra: batch vs scalar byte-identity per geometry"
        # Points are geometry:bits:q:pairs. Hypercube also runs at d = 16,
        # where its routes are long enough to draw many reservoir samples
        # per pair. Tree, xor, ring and symphony also route 20 000 pairs
        # at d = 18, where the lanes of a block (64 in the AVX-512 lanes)
        # refill hundreds of times.
        for point in ring:8:0.25:80 xor:8:0.25:80 tree:8:0.25:80 hypercube:8:0.25:80 \
                     symphony:8:0.25:80 hypercube:16:0.1:80 hypercube:16:0.4:80 \
                     tree:18:0.3:20000 xor:18:0.3:20000 ring:18:0.3:20000 \
                     symphony:18:0.3:20000; do
            g=${point%%:*}
            rest=${point#*:}
            d=${rest%%:*}
            rest=${rest#*:}
            q=${rest%%:*}
            pairs=${rest#*:}
            ARGS="simulate -g $g -d $d -q $q --trials 2 --pairs $pairs --seed 42"
            for jobs in 1 2; do
                sweep "$g-d$d-q$q.j$jobs.batch" --jobs "$jobs"
                sweep "$g-d$d-q$q.j$jobs.scalar" --jobs "$jobs" --no-batch
                same "$g-d$d-q$q.j$jobs.batch" "$g-d$d-q$q.j$jobs.scalar" \
                    "between batch and --no-batch ($g -d $d -q $q, $jobs jobs)"
                grep -q "routability" "$WORK/$g-d$d-q$q.j$jobs.batch.txt" \
                    || fail "sweep output carries no routability line ($g -d $d -q $q)"
            done
        done
        # Memory guard: a Symphony table stores one int32 shortcut per
        # node (16 MiB at d = 22) and computes its successor, where a
        # per-node block stored both plus an offsets array (64 MiB). The
        # whole run peaks near 25 MiB, a block near 74 MiB, and the
        # other four geometries near 14 MiB.
        say "extra: simulate -g symphony -d 22 peaks below 48 MiB of resident memory"
        $DHTLAB simulate -g symphony -d 22 -q 0.1 --trials 1 --pairs 2000 --jobs 1 \
            --manifest "$WORK/sym-d22.manifest.json" > "$WORK/sym-d22.txt"
        $VALIDATE --manifest "$WORK/sym-d22.manifest.json" || fail "sym-d22 manifest failed validation"
        KB=$(sed -n 's/^ *"peak_rss_kb": \([0-9]*\),$/\1/p' "$WORK/sym-d22.manifest.json")
        if [ -z "$KB" ]; then
            say "    no peak_rss_kb in the manifest (no reader on this OS): guard skipped"
        elif [ "$KB" -gt $((48 * 1024)) ]; then
            fail "simulate -g symphony -d 22 peaked at $KB KiB, above 48 MiB"
        else
            say "    peak $KB KiB"
        fi
        ;;
    record)
        say "extra: record listed by dhtlab geometries; record figures byte-identical across --jobs"
        $DHTLAB geometries --names > "$WORK/names.txt"
        grep -qx record "$WORK/names.txt" || fail "record missing from dhtlab geometries --names"
        for fig in record-hops record-tradeoff; do
            $DHTLAB figure "$fig" --quick --jobs 1 > "$WORK/$fig.j1.txt"
            $DHTLAB figure "$fig" --quick --jobs 8 > "$WORK/$fig.j8.txt"
            diff "$WORK/$fig.j1.txt" "$WORK/$fig.j8.txt" \
                || fail "figure $fig differs between --jobs 1 and --jobs 8"
        done
        grep -q "record:h=4" "$WORK/record-hops.j1.txt" \
            || fail "record-hops output does not name record:h=4"
        grep -q "record:h=16" "$WORK/record-tradeoff.j1.txt" \
            || fail "record-tradeoff output does not cover the base sweep"
        ;;
    hotspots)
        say "extra: CSV, loadmap and JSON shape"
        head -n 1 "$WORK/baseline.txt" | grep -qx \
            'plane,geometry,bits,nodes,axis,kind,total,active_nodes,load_max,load_mean,congestion,gini,traversals,terminations,storage_reads,repairs' \
            || fail "unexpected CSV header"
        head -n 1 "$WORK/baseline.loadmap.csv" \
            | grep -qx 'node,traversals,terminations,storage_reads,repairs' \
            || fail "unexpected loadmap header"
        # --smoke pins bits to 8: the routing plane's map covers 2^8 nodes,
        # so the file is the header plus 256 rows.
        ROWS=$(($(wc -l < "$WORK/baseline.loadmap.csv") - 1))
        [ "$ROWS" -eq 256 ] || fail "loadmap has $ROWS rows, expected 256"
        $DHTLAB hotspots --smoke --no-progress --jobs 1 --json > "$WORK/points.json"
        for key in '"plane"' '"traversals"' '"terminations"' '"storage_reads"' '"repairs"' '"gini"'; do
            grep -q "$key" "$WORK/points.json" || fail "JSON output is missing $key"
        done
        ;;
esac

say "OK"
