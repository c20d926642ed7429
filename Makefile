# Convenience targets; CI runs the same commands.

METRICS_DIR  ?= metrics
BASELINE     := ci/latency_baseline.json
RSS_BASELINE := ci/rss_baseline.json
# The one experiment list (`name gated|ungated` per line) that this file,
# run_experiments.sh and CI all read; `gated` bins have a latency baseline
# and a metrics validator.
GATED_BINS   := $(shell awk '$$2 == "gated" { print $$1 }' ci/experiments.txt)
GATED        := $(GATED_BINS:%=$(METRICS_DIR)/%.json)

.PHONY: test run-gated check-latency refresh-baselines validate-metrics experiments \
        e16 check-rss refresh-rss-baseline two-process-smoke bench-check bench

test:
	cargo build --release
	cargo test -q --workspace

# The repo benchmark (BENCHMARK.json) is a cargo package of its own that
# the root workspace does not see: build it, run every workload at 1 %
# length with its names and units validated, and run its own tests — so a
# product change that breaks it fails here, not in the pipeline's run.
# The last two lines guard restart. The first keeps §3.4 restart from
# going quadratic in prior load again: the benchmark's fatal path 5 repro,
# short (~10 s). It read ~21 000 ms before restart became one pass, ~90 ms
# after. The second is fatal path 3's repro (~6 s): a client drill of four
# caches' worth of pages, which client restart refused (no drill
# completed) until it redid in cache-sized windows; it reads ~5 ms now.
bench-check:
	bash benchmark/run.sh --check
	cd benchmark && cargo test --release --offline
	bash benchmark/run.sh --workload simlat_fanin --seed 1 --seconds 8 --trace 0 --set server_drill_txns=50 \
	  | tail -n 1 | python3 scripts/check_restart_guard.py 2000
	bash benchmark/run.sh --workload private_commit --seed 1 --seconds 8 --trace 0 --set client_drill_pages=256 \
	  | tail -n 1 | python3 scripts/check_restart_guard.py 2000 client_recovery_ms

# Two full sets of ten runs per workload, then compare.py (~30 min).
bench:
	bash benchmark/run.sh --repeat 2

# Quick sweeps of the gated experiments, metrics JSON into $(METRICS_DIR).
run-gated:
	mkdir -p $(METRICS_DIR)
	for b in $(GATED_BINS); do \
	  FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin $$b -- --quick || exit 1; \
	done

# Re-run the gated obs-smoke experiments and compare their p95 commit /
# lock-wait latencies against the checked-in baseline.
check-latency: run-gated
	python3 scripts/check_latency_regression.py $(BASELINE) $(GATED)

# Rebuild the baseline from a fresh run (after an intentional latency
# change); commit the updated $(BASELINE).
refresh-baselines: run-gated
	python3 scripts/check_latency_regression.py --update $(BASELINE) $(GATED)

# Schema/content validation of the metrics JSON `run-gated` emitted (add
# --trace <file> to the script for Chrome trace files).
validate-metrics:
	python3 scripts/validate_metrics_json.py $(GATED)

experiments:
	./run_experiments.sh --quick

# Server + two clients (one crashing mid-run) + verifier as separate OS
# processes over a Unix-domain socket; same script CI runs.
two-process-smoke:
	./scripts/two_process_smoke.sh

# Full E16 memory-cliff sweep (1k -> 64k clients, one child process per
# cell). FGL_E16_MAX_CLIENTS / FGL_E16_START_CLIENTS bound the sweep.
e16:
	FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin e16_memory_cliff

# Quick E16 sweep, then gate per-client RSS growth and the stack-pool
# hit rate against the checked-in baseline.
check-rss:
	FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin e16_memory_cliff -- --quick
	python3 scripts/check_rss_regression.py $(RSS_BASELINE) $(METRICS_DIR)/e16_memory_cliff.json

# Rebuild the RSS baseline after an intentional memory-footprint change;
# commit the updated $(RSS_BASELINE).
refresh-rss-baseline:
	FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin e16_memory_cliff -- --quick
	python3 scripts/check_rss_regression.py --update $(RSS_BASELINE) $(METRICS_DIR)/e16_memory_cliff.json
