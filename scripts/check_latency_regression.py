#!/usr/bin/env python3
"""Latency-regression gate for the obs-smoke experiments.

Compares the p95 commit and lock-wait latencies — and, where a row
restarted the server, its §3.4 phase times — of freshly emitted
experiment metrics (the JSON files MetricsEmitter writes) against a
checked-in baseline, and exits non-zero when a sweep point regresses
beyond the noise band. The band is deliberately generous — the
simulator's latencies are dominated by injected disk/net sleeps, but CI
runners still add scheduling jitter:

    regression  <=>  new > max(base * RATIO, base + ABS_SLACK_US)

Usage:
    check_latency_regression.py BASELINE METRICS.json [METRICS.json ...]
    check_latency_regression.py --update BASELINE METRICS.json [...]

`--update` rewrites BASELINE from the given metrics files instead of
comparing (the `make refresh-baselines` path).
"""

import json
import sys

RATIO = 2.0
ABS_SLACK_US = 500
TRACKED = ("commit_us", "lock_wait_us")


def tracked(name):
    """Commit and lock-wait latency everywhere; plus the server-restart
    phases (`recovery_phase_us_<strategy>_server_<phase>`), which only
    rows that crashed the server carry (E14)."""
    return name in TRACKED or (
        name.startswith("recovery_phase_us_") and "_server_" in name
    )


# Measured-environment params (sampled thread counts, pool sizes derived
# from host cores, RSS readings) would make baseline keys host-dependent;
# identify sweep points by the swept knobs only.
VOLATILE = (
    "peak_threads",
    "driver_threads",
    "peak_rss_bytes",
    "rss_per_client_bytes",
    "stack_pool_hit_pct",
)


def row_key(params):
    return json.dumps(
        {k: v for k, v in params.items() if k not in VOLATILE}, sort_keys=True
    )


def extract(path):
    """{experiment, rows: {param-key: {hist: p95}}} for one metrics file."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc["rows"]:
        hists = row["metrics"]["histograms"]
        point = {name: h["p95"] for name, h in hists.items() if tracked(name)}
        if point:
            rows[row_key(row["params"])] = point
    return doc["experiment"], rows


def main(argv):
    update = "--update" in argv
    argv = [a for a in argv if a != "--update"]
    if len(argv) < 2:
        sys.exit(__doc__)
    baseline_path, metrics_paths = argv[0], argv[1:]

    current = {}
    for path in metrics_paths:
        experiment, rows = extract(path)
        current[experiment] = rows

    if update:
        with open(baseline_path, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        n = sum(len(r) for r in current.values())
        print(f"baseline updated: {len(current)} experiments, {n} sweep points")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = []
    compared = 0
    for experiment, rows in current.items():
        base_rows = baseline.get(experiment)
        if base_rows is None:
            print(f"note: no baseline for {experiment}; run `make refresh-baselines`")
            continue
        for key, point in rows.items():
            base_point = base_rows.get(key)
            if base_point is None:
                print(f"note: new sweep point in {experiment}: {key}")
                continue
            for name, new in point.items():
                base = base_point.get(name)
                if base is None:
                    continue
                compared += 1
                limit = max(base * RATIO, base + ABS_SLACK_US)
                if new > limit:
                    failures.append(
                        f"{experiment} {key}: {name} p95 {new}us > "
                        f"limit {limit:.0f}us (baseline {base}us)"
                    )
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    print(f"{compared} latency points compared, {len(failures)} regressions")
    if not compared:
        print("error: nothing compared — baseline/metrics mismatch?", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
