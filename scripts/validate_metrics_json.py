#!/usr/bin/env python3
"""Schema/content validation for the experiment metrics JSON (E14-E18)
and the Chrome trace-event files the tracing layer exports.

MetricsEmitter writes one file per experiment:

    {"experiment": <id>, "rows": [{"params": {...}, "metrics":
        {"counters": {...}, "histograms": {name: {count, sum, max, mean,
                                                  p50, p95, p99, buckets}}}}]}

This script holds one validator per experiment id (the checks CI used to
carry as inline python) and dispatches on the file's own `experiment`
field, so the workflow step is a single command however many sweeps run.

Usage:
    validate_metrics_json.py METRICS.json [METRICS.json ...]
    validate_metrics_json.py --trace TRACE.json [--trace TRACE.json ...]

`--trace` files are validated as Chrome trace-event JSON (the
`FGL_TRACE_OUT` exporter): parseable, non-empty, complete "X" events
with µs timestamps, and span names drawn from the known taxonomy.
"""

import json
import sys

SPAN_NAMES = {
    "commit",
    "lock-wait",
    "callback-rtt",
    "wal-force",
    "net-hop",
    "page-fetch",
    "commit-log-ship",
    "sched-wait",
}

HIST_KEYS = ("count", "p50", "p95", "p99", "max")


def rows_of(doc, experiment):
    assert doc["experiment"] == experiment, doc["experiment"]
    rows = doc["rows"]
    assert rows, f"{experiment}: no sweep rows emitted"
    for row in rows:
        assert "params" in row and "metrics" in row, row.keys()
        m = row["metrics"]
        assert "counters" in m and "histograms" in m, m.keys()
    return rows


def check_commit_hist(m):
    commit = m["histograms"]["commit_us"]
    for key in HIST_KEYS:
        assert key in commit, commit.keys()


def validate_e14(doc):
    rows = rows_of(doc, "e14_recovery_shootout")
    strategies = {r["params"]["strategy"] for r in rows}
    assert strategies == {"client_aries", "redo_only"}, strategies
    for row in rows:
        p, m = row["params"], row["metrics"]
        assert m["counters"]["e14_commits_per_s"] > 0, m["counters"]
        assert m["counters"]["e14_log_bytes_per_commit"] > 0, m["counters"]
        assert "e14_recovery_us" in m["counters"], m["counters"].keys()
        assert m["counters"]["client_commits"] > 0, m["counters"]
        assert any(k.startswith("wal_bytes_") for k in m["counters"]), m["counters"].keys()
        phases = [
            k
            for k in m["histograms"]
            if k.startswith(f"recovery_phase_us_{p['strategy']}")
        ]
        assert phases, (p, list(m["histograms"].keys()))
    return f"{len(rows)} e14 rows across {len(strategies)} strategies"


def validate_e15(doc):
    rows = rows_of(doc, "e15_trace_attribution")
    cells = {(r["params"]["scheduler"], r["params"]["traced"]) for r in rows}
    assert cells == {("event", "false"), ("event", "true")}, cells
    traced = 0
    for row in rows:
        p, m = row["params"], row["metrics"]
        c = m["counters"]
        assert c["client_commits"] > 0, c
        check_commit_hist(m)
        if p["traced"] != "true":
            assert "trace_spans" not in c, "untraced rows must not carry trace counters"
            continue
        traced += 1
        assert c["trace_commits"] > 0, c
        assert c["trace_spans"] > 0, c
        assert c["trace_span_commit_count"] == c["trace_commits"], c
        # Every open found its close: nothing fell out of the rings.
        assert c["trace_orphan_opens"] == 0, c
        assert c["trace_orphan_closes"] == 0, c
        assert c["ring_dropped_events"] == 0, c
        # The tentpole claim: per-span budgets agree with independently
        # measured commit latency at the median, within ~10%.
        assert c["e15_budget_p50_us"] > 0 and c["e15_measured_p50_us"] > 0, c
        gap = c["e15_budget_gap_pct_x100"]
        assert gap <= 1000, f"budget gap {gap / 100:.1f}% exceeds 10%"
    assert traced == 1, f"expected 1 traced row, saw {traced}"
    return f"{len(rows)} e15 rows (1 traced, gap within 10%)"


def validate_e16(doc):
    rows = rows_of(doc, "e16_memory_cliff")
    fleets = sorted(r["params"]["clients"] for r in rows)
    assert len(fleets) == len(set(fleets)), f"duplicate sweep cells: {fleets}"
    assert len(fleets) >= 2, f"sweep must cover at least one doubling: {fleets}"
    for row in rows:
        p, m = row["params"], row["metrics"]
        c = m["counters"]
        assert p["scheduler"] == "event", p
        assert c["client_commits"] > 0, c
        check_commit_hist(m)
        # The cell runs in its own process with an RSS sampler: both
        # absolute and per-client readings must be live.
        assert p["peak_rss_bytes"] > 0 and p["rss_per_client_bytes"] > 0, p
        # The explicit 64 KiB task stack the sweep requests must be the
        # one the scheduler actually ran with.
        assert c["sched_stack_size_bytes"] == 64 * 1024, c
        # Steady state the pool recycles nearly every stack: allocations
        # track live concurrency (~workers), not configured clients.
        assert p["stack_pool_hit_pct"] >= 90, p
        assert 0 < c["sched_stacks_allocated"] < p["clients"], c
    return f"{len(rows)} e16 cells ({fleets[0]}..{fleets[-1]} clients, pool hit >=90%)"


def validate_e17(doc):
    rows = rows_of(doc, "e17_wire_overhead")
    transports = {r["params"]["transport"] for r in rows}
    assert transports == {"sim", "tcp", "uds"}, transports
    for row in rows:
        p, m = row["params"], row["metrics"]
        c = m["counters"]
        assert c["client_commits"] > 0, c
        check_commit_hist(m)
        if p["transport"] == "sim":
            # The sim fabric has no wire: only nominal accounting.
            assert c.get("wire_total_bytes", 0) == 0, c
            continue
        # Socket rows: frames actually crossed a socket, round trips were
        # timed, and the encoded volume tracks the nominal accounting the
        # paper-series experiments report (the codec-fidelity claim; the
        # callback family is byte-identical by construction).
        assert c["wire_total_messages"] > 0, c
        assert c["wire_total_bytes"] > 0, c
        hist = m["histograms"].get("wire_rtt_us")
        assert hist and hist["count"] > 0, m["histograms"].keys()
        ratio = c["wire_total_bytes"] / c["net_total_bytes"]
        assert 0.5 <= ratio <= 3.0, f"wire/nominal ratio {ratio:.2f} ({p})"
    return f"{len(rows)} e17 rows across {len(transports)} transports"


def validate_e18(doc):
    rows = rows_of(doc, "e18_multi_server_scaleout")
    cells = {
        (r["params"]["instances"], r["params"]["cross"], r["params"]["policy"])
        for r in rows
    }
    assert len(cells) == len(rows), f"duplicate sweep cells: {sorted(cells)}"
    instance_counts = {r["params"]["instances"] for r in rows}
    assert 1 in instance_counts and max(instance_counts) >= 2, instance_counts
    for row in rows:
        p, m = row["params"], row["metrics"]
        c = m["counters"]
        n = p["instances"]
        assert c["client_commits"] > 0, c
        check_commit_hist(m)
        # Per-instance nesting: every instance carries its own counters,
        # and the per-instance commit attribution sums to the aggregate.
        per_instance = [c[f"srv{k}_commits"] for k in range(n)]
        assert sum(per_instance) == c["client_commits"], (per_instance, c["client_commits"])
        for k in range(n):
            assert f"srv{k}_lock_requests" in c, (n, sorted(c.keys()))
        if n > 1:
            # Aligned cells spread work across every instance.
            assert all(v > 0 for v in per_instance), per_instance
        if p["policy"] == "server-log":
            ships = sum(c.get(f"srv{k}_commit_log_ships", 0) for k in range(n))
            assert ships == c["server_commit_log_ships"] > 0, c
    return f"{len(rows)} e18 cells (instances {sorted(instance_counts)})"


VALIDATORS = {
    "e14_recovery_shootout": validate_e14,
    "e15_trace_attribution": validate_e15,
    "e16_memory_cliff": validate_e16,
    "e17_wire_overhead": validate_e17,
    "e18_multi_server_scaleout": validate_e18,
}


def validate_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert events, f"{path}: empty trace"
    names = set()
    for e in events:
        assert e["ph"] == "X", e
        for key in ("name", "ts", "dur", "pid", "tid"):
            assert key in e, (path, e)
        assert e["dur"] >= 0 and e["ts"] >= 0, e
        names.add(e["name"])
    unknown = names - SPAN_NAMES
    assert not unknown, f"{path}: unknown span names {unknown}"
    assert "commit" in names, f"{path}: no commit root spans ({names})"
    return f"{len(events)} events, kinds: {', '.join(sorted(names))}"


def main(argv):
    if not argv:
        sys.exit(__doc__)
    failures = 0
    i = 0
    while i < len(argv):
        if argv[i] == "--trace":
            path, i = argv[i + 1], i + 2
            kind, run = "trace", validate_trace
        else:
            path, i = argv[i], i + 1
            with open(path) as f:
                doc = json.load(f)
            experiment = doc["experiment"]
            validator = VALIDATORS.get(experiment)
            if validator is None:
                print(f"note: no validator for {experiment} ({path}); skipped")
                continue
            kind, run = experiment, lambda _p, d=doc, v=validator: v(d)
        try:
            detail = run(path)
        except AssertionError as e:
            print(f"FAIL {kind} ({path}): {e}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok: {kind}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
