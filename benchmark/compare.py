#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or validate one run's result.

    compare.py A.json[,A2.json...] B.json[,B2.json...]
    compare.py --validate R.json [--trace 0|1] [--short]

The inputs are the files a run leaves in benchmark/out/ (one per run:
`<workload>-seed<N>-trace<T>.json`), or files holding just the result
line of a run. A file that says its run was altered (`--set`, `--scale`,
`--plant`) is refused: it is not a run of the frozen workload. Only
`--validate --short` takes a scaled run. Compare prints one row per workload x end-to-end metric:
both medians, both quartile spreads (distance between the first and the
third quartile as a share of the median), the change of B against A in
the metric's worse direction, and a verdict by the rule of the
choosing-metrics guide:

    worse       B's median is worse than A's by more than the metric's bound
    better      B's median is better by more than the bound
    unresolved  the change is within the bound, but a set's quartile spread
                is wider than the bound, so "unchanged" is not shown;
                unless every run of B is on one side of every run of A,
                which decides it (better or worse)
    same        otherwise

Exit code 1 when any row is `worse` or `unresolved`, else 0.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def altered(doc):
    """What makes a run's details file something other than a run of the
    frozen workload (`--set`, `--scale`, `--plant`), as text; empty for a
    canonical run. Sets and ledger rows are made of canonical runs only."""
    said = [f"--set {k}={v}" for k, v in doc.get("overrides", {}).items()]
    if doc.get("scale", 1) != 1:
        said.append(f"--scale {doc['scale']}")
    if doc.get("plant", False):
        said.append("--plant 1")
    return " ".join(said)


def load(path, allow_scale=False):
    """(workload or None, result object) of one run's file."""
    with open(path) as f:
        text = f.read().strip()
    doc = json.loads(text if text.startswith("{\n") else text.splitlines()[-1])
    if "result" not in doc:
        return None, doc
    how = altered({**doc, "scale": 1} if allow_scale else doc)
    if how:
        sys.exit(f"{path}: not a run of the frozen workload (it ran with {how})")
    return doc.get("workload"), doc["result"]


def validate(path, trace, short):
    """Names, units and shape of one run's result against BENCHMARK.json. A
    full-length end-to-end run may not read 0 anywhere; a `--short` one
    (run.sh --check, 1 % length) may: it has too few commits to see a
    message on `private_commit`."""
    spec = benchmark_json()
    _, result = load(path, allow_scale=short)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not (isinstance(result.get("failed"), int) and result["failed"] >= 0):
        problems.append("failed is not a whole number >= 0")
    table = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = result.get("metrics", {})
    for name in want.keys() - got.keys():
        problems.append(f"metric {name} is missing")
    for name in got.keys() - want.keys():
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name, m in got.items():
        if not NAME.match(name):
            problems.append(f"metric name {name!r} is malformed")
        if sorted(m) != ["unit", "value"] or not UNIT.match(str(m.get("unit"))):
            problems.append(f"metric {name} is not {{value, unit}}")
        elif name in want and m["unit"] != want[name]:
            problems.append(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {want[name]}")
        elif not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} has no numeric value")
        elif not trace and not short and m["value"] == 0:
            problems.append(f"end-to-end metric {name} reads 0")
    for p in problems:
        print(f"{path}: {p}", file=sys.stderr)
    return not problems


def quartile_spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def read_set(arg):
    runs = {}
    for path in arg.split(","):
        workload, result = load(path)
        if workload is None:
            sys.exit(f"{path}: no workload name; pass the files a run writes to benchmark/out/")
        runs.setdefault(workload, []).append(result["metrics"])
    return runs


def verdict(a, b, better, bound):
    """(change in the worse direction as a share of A's median, verdict)."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "better"
    if max(quartile_spread(a), quartile_spread(b)) > bound:
        if sign * (min(b) - max(a)) > 0:
            return worse_by, "worse"
        if sign * (max(b) - min(a)) < 0:
            return worse_by, "better"
        return worse_by, "unresolved"
    return worse_by, "same"


def compare(arg_a, arg_b):
    spec = benchmark_json()
    a_runs, b_runs = read_set(arg_a), read_set(arg_b)
    print(
        f"{'workload':<15} {'metric':<22} {'A median':>13} {'A iqr':>7} "
        f"{'B median':>13} {'B iqr':>7} {'worse by':>9} {'bound':>6}  verdict"
    )
    bad = 0
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in a_runs or w not in b_runs:
            continue
        for m in spec["end_to_end"]:
            a = [r[m["name"]]["value"] for r in a_runs[w]]
            b = [r[m["name"]]["value"] for r in b_runs[w]]
            change, v = verdict(a, b, m["better"], m["bound"])
            bad += v in ("worse", "unresolved")
            print(
                f"{w:<15} {m['name']:<22} {statistics.median(a):>13.4f} "
                f"{quartile_spread(a) * 100:>6.1f}% {statistics.median(b):>13.4f} "
                f"{quartile_spread(b) * 100:>6.1f}% {change * 100:>+8.1f}% "
                f"{m['bound'] * 100:>5.0f}%  {v}"
            )
    print(f"{bad} row(s) worse or unresolved")
    return bad == 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "--validate":
        trace = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
        return 0 if validate(argv[1], trace, "--short" in argv) else 1
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare(argv[0], argv[1]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
