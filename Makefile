.PHONY: all build test check doc docs-smoke sweep-smoke trace-smoke perfbench-smoke clean

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

# Smoke table, one row per sweep (scripts/sweep_smoke.sh): byte-identity
# across --jobs and --no-batch, CSV/JSON/loadmap shapes, checkpoint +
# resume (also from a truncated checkpoint) and SIGINT recovery with
# validated manifest/metrics telemetry, each diffed byte-for-byte
# against an uninterrupted baseline.
sweep-smoke: build
	for row in simulate record hotspots churn storage; do \
	  sh scripts/sweep_smoke.sh $$row || exit 1; \
	done

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
