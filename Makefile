.PHONY: all build test check doc docs-smoke bench bench-smoke batch-smoke record-smoke chaos-smoke churn-smoke storage-smoke hotspot-smoke trace-smoke perfbench-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full gate: everything compiles, the whole suite passes, and the
# parallel engine survives a real 2-domain figure regeneration.
check:
	dune build @all
	dune runtest
	DHT_RCM_JOBS=2 dune exec bin/dhtlab.exe -- figure f6a --quick --jobs 2

# odoc API reference, warnings-as-errors. Skips (exit 0) when odoc is
# not installed; CI runs it with DOC_STRICT=1 after installing odoc.
doc:
	sh scripts/doc.sh

# Docs-drift audit: README/EXPERIMENTS/DESIGN flag and subcommand
# references checked against the built binary's real --help output.
docs-smoke: build
	sh scripts/docs_smoke.sh

bench:
	dune exec bench/main.exe

# CI-sized bench: runs only the pool sweep (with metrics enabled),
# writes BENCH_<date>.json, and asserts it matches the schema the
# perf-tracking tooling expects.
bench-smoke:
	dune exec bench/main.exe -- --smoke
	dune exec bench/validate.exe

# Batch-kernel smoke: flat-backend sweeps routed through the batched
# per-geometry kernels diffed byte-for-byte against --no-batch (the
# scalar router), plus schema validation of the bench batch section.
# Expects bench-smoke to have written BENCH_<date>.json first.
batch-smoke: build
	sh scripts/batch_smoke.sh

# ReCord plugin smoke: the registry-path geometry simulated and
# figure-regenerated byte-identically across --jobs and batch/scalar,
# plus schema validation of the bench record section. Expects
# bench-smoke to have written BENCH_<date>.json first.
record-smoke: build
	sh scripts/record_smoke.sh

# Fault-tolerance smoke: fault-injected --smoke sweep, SIGINT mid-run,
# --resume, and a deterministic truncated-checkpoint resume — each
# diffed byte-for-byte against an uninterrupted baseline.
chaos-smoke: build
	sh scripts/chaos_smoke.sh

# Checkpointed-sweep smokes (one script, one table row per sweep):
# --jobs determinism, csv/json shape, checkpoint + resume (including a
# truncated mid-state checkpoint) and SIGINT recovery of the churn and
# the storage sweep, each diffed byte-for-byte against an uninterrupted
# baseline.
churn-smoke: build
	sh scripts/sweep_smoke.sh churn

storage-smoke: build
	sh scripts/sweep_smoke.sh storage

# Load-telemetry smoke: hotspot sweep loadmap byte-identity across
# --jobs, batch vs scalar per-node count parity, and the CSV/JSON/
# loadmap file shapes.
hotspot-smoke: build
	sh scripts/hotspot_smoke.sh

# Observability smoke: traced --smoke sweep (stdout byte-identical to
# an untraced one), trace report aggregates, Chrome export, and
# validated manifest/metrics/Prometheus sinks.
trace-smoke: build
	sh scripts/trace_smoke.sh

# End-to-end benchmark smoke: every perfbench workload for one second
# untraced, then sweep-d20 traced (the traced re-drive calls
# Failure.sample, survivors and sample_and_route directly). run.py
# exits non-zero when an output check fails — batch = scalar, the RCM
# closed forms, every repetition equal to the reference — so this
# gates correctness, not speed.
perfbench-smoke:
	for w in sweep-d20 route-d20 churn storage; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done
	python3 perfbench/run.py --workload sweep-d20 --seed 1 --seconds 1 --trace 1

clean:
	dune clean
