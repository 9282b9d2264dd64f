.PHONY: all build test check doc docs-smoke exports-audit sanitize sweep-smoke trace-smoke perfbench-smoke clean

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
# references checked against the built binary's real --help output,
# and their Module.name API references (with the {!Module.name} ones
# in lib/*/*.mli) against the exports (scripts/exports_audit.py).
docs-smoke: build
	sh scripts/docs_smoke.sh

# Every val/external in lib/*/*.mli has a caller in bin/, examples/,
# perfbench/, bench/ or another lib/ module, or a "Test hook:" marker
# in its doc comment; every documented API reference resolves.
exports-audit:
	python3 scripts/exports_audit.py

# The C kernels under AddressSanitizer and UndefinedBehaviorSanitizer,
# with the index checks of lib/overlay/bounds.h on (the sanitize
# profile in ./dune): the whole suite, then the sweep-smoke simulate
# and record rows on the sanitized binaries the suite built (the record
# row routes ReCord's block lane, whose pairs come from the C pair
# draw).
# Leak detection is off: the OCaml runtime does not free its heap at
# exit. Leaves _build/ in the sanitize profile; the next plain dune
# build rebuilds it.
sanitize:
	ASAN_OPTIONS=detect_leaks=0 DUNE_PROFILE=sanitize dune runtest
	ASAN_OPTIONS=detect_leaks=0 sh scripts/sweep_smoke.sh simulate
	ASAN_OPTIONS=detect_leaks=0 sh scripts/sweep_smoke.sh record

# Smoke table, one row per sweep (scripts/sweep_smoke.sh): byte-identity
# across --jobs and --no-batch, CSV/JSON/loadmap shapes, checkpoint +
# resume (also from a truncated checkpoint) and SIGINT recovery with
# validated manifest/metrics telemetry, each diffed byte-for-byte
# against an uninterrupted baseline; and a memory guard, the manifest's
# peak_rss_kb of a d = 22 Symphony run below 48 MiB.
sweep-smoke: build
	for row in simulate record hotspots churn percolation storage; do \
	  sh scripts/sweep_smoke.sh $$row || exit 1; \
	done

# Observability smoke: traced --smoke sweep (stdout byte-identical to
# an untraced one), trace report aggregates, its hop histograms equal
# under --no-batch, Chrome export, validated manifest/metrics sinks,
# and a traced storage --smoke run whose report lists storage/point.
trace-smoke: build
	sh scripts/trace_smoke.sh

# End-to-end benchmark smoke: every perfbench workload for one second
# untraced, then sweep-d20, route-d20, storage and churn traced (the
# traced re-drives call Failure.sample, survivors and sample_and_route
# with a survivor pool, Sparse.build, Store.create and Store.read, and
# Session_churn.run once per point, directly). run.py exits non-zero
# when an output check fails — batch = scalar, the RCM closed forms,
# every repetition (traced ones included) equal to the reference, for
# churn its events, alive fraction and routability — so this gates
# correctness, not speed. The untraced repetitions draw their pairs
# through the rank index and the traced re-drives through the pool, so
# the equality check also compares the two pair sources: 150k pairs a
# repetition in sweep-d20, 3.6M in route-d20.
perfbench-smoke:
	for w in sweep-d20 route-d20 churn storage; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done
	python3 perfbench/run.py --workload sweep-d20 --seed 1 --seconds 1 --trace 1
	python3 perfbench/run.py --workload route-d20 --seed 1 --seconds 1 --trace 1
	python3 perfbench/run.py --workload storage --seed 1 --seconds 1 --trace 1
	python3 perfbench/run.py --workload churn --seed 1 --seconds 1 --trace 1

clean:
	dune clean
