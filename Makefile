# Convenience targets; CI runs the same commands.

METRICS_DIR  ?= metrics
BASELINE     := ci/latency_baseline.json
RSS_BASELINE := ci/rss_baseline.json
GATED        := $(METRICS_DIR)/e11_server_shard_scaling.json \
                $(METRICS_DIR)/e12_callback_batching.json \
                $(METRICS_DIR)/e13_client_scaling.json \
                $(METRICS_DIR)/e14_recovery_shootout.json \
                $(METRICS_DIR)/e15_trace_attribution.json \
                $(METRICS_DIR)/e16_memory_cliff.json \
                $(METRICS_DIR)/e17_wire_overhead.json

GATED_BINS   := e11_server_shard_scaling e12_callback_batching \
                e13_client_scaling e14_recovery_shootout \
                e15_trace_attribution e16_memory_cliff \
                e17_wire_overhead

.PHONY: test check-latency refresh-baselines validate-metrics experiments \
        e16 check-rss refresh-rss-baseline two-process-smoke bench-check bench

test:
	cargo build --release
	cargo test -q --workspace

# The repo benchmark (BENCHMARK.json) is a cargo package of its own that
# the root workspace does not see: build it, run every workload at 1 %
# length with its names and units validated, and run its own tests — so a
# product change that breaks it fails here, not in the pipeline's run.
bench-check:
	bash benchmark/run.sh --check
	cd benchmark && cargo test --release --offline

# Two full sets of ten runs per workload, then compare.py (~30 min).
bench:
	bash benchmark/run.sh --repeat 2

# Re-run the gated obs-smoke experiments and compare their p95 commit /
# lock-wait latencies against the checked-in baseline.
check-latency:
	for b in $(GATED_BINS); do \
	  FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin $$b -- --quick || exit 1; \
	done
	python3 scripts/check_latency_regression.py $(BASELINE) $(GATED)

# Rebuild the baseline from a fresh run (after an intentional latency
# change); commit the updated $(BASELINE).
refresh-baselines:
	for b in $(GATED_BINS); do \
	  FGL_METRICS_DIR=$(METRICS_DIR) cargo run --release -q -p fgl-bench --bin $$b -- --quick || exit 1; \
	done
	python3 scripts/check_latency_regression.py --update $(BASELINE) $(GATED)

# Schema/content validation of the emitted metrics JSON (same script CI
# runs; add --trace <file> for Chrome trace files).
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
