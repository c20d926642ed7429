#!/usr/bin/env python3
"""Turn sets of runs into a ledger row and the README's measured table.

    ledger.py --pr N --commit HASH SET_DIR [SET_DIR...] > ledger/BENCH_N.json
    ledger.py --table SET_DIR [SET_DIR...]

A SET_DIR holds the files runs leave behind (`<workload>-seed<N>-trace<T>.json`),
end-to-end runs (trace 0) and, optionally, traced runs (trace 1). The
ledger row carries, per workload, the median of every metric over all the
runs given, with the count of runs. The table prints, per set, the median
and the quartile spread of every end-to-end cell, the raw (uncorrected)
reading beside the corrected one where a correction applies.
"""

import glob
import json
import os
import statistics
import sys

from compare import altered, benchmark_json as spec, quartile_spread

RAW_OF = {
    "setup_s": "raw_setup_s",
    "commits_per_s": "raw_commits_per_s",
    "txn_p50_us": "raw_txn_p50_us",
    "txn_p95_us": "raw_txn_p95_us",
    "cpu_us_per_commit": "raw_cpu_us_per_commit",
}


def runs(set_dir, trace):
    out = {}
    for path in sorted(glob.glob(os.path.join(set_dir, f"*-trace{trace}.json"))):
        with open(path) as f:
            doc = json.load(f)
        if altered(doc):
            sys.exit(f"{path}: not a run of the frozen workload (it ran with {altered(doc)})")
        out.setdefault(doc["workload"], []).append(doc)
    return out


def spread(values):
    return quartile_spread(values) * 100


def raw_reading(doc, metric):
    """The run's uncorrected reading of a corrected metric, or None."""
    if metric in RAW_OF:
        return statistics.median(b[RAW_OF[metric]] for b in doc["bursts"])
    if metric == "server_restart_ms":
        return statistics.median(d["raw_server_restart_ms"] for d in doc["drills"])
    if metric == "client_recovery_ms":
        return statistics.median(d["raw_client_recovery_ms"] for d in doc["drills"])
    return None


def table(set_dirs):
    names = [m["name"] for m in spec()["end_to_end"]]
    for w in [w["name"] for w in spec()["workloads"]]:
        per_set = [runs(d, 0).get(w, []) for d in set_dirs]
        if not all(per_set):
            continue
        print(f"\n#### `{w}`\n")
        head = "| metric |" + "".join(
            f" set {i + 1} raw | set {i + 1} reported |" for i in range(len(set_dirs))
        )
        print(head)
        print("|---|" + "---:|---:|" * len(set_dirs))
        for name in names:
            row = f"| `{name}` |"
            for docs in per_set:
                vals = [d["result"]["metrics"][name]["value"] for d in docs]
                raws = [raw_reading(d, name) for d in docs]
                cpu_paced = docs[0]["cpu_paced"] or name == "cpu_us_per_commit"
                if raws[0] is None or not cpu_paced:
                    row += " |"
                else:
                    row += f" {statistics.median(raws):.4g} ± {spread(raws):.1f} % |"
                row += f" {statistics.median(vals):.4g} ± {spread(vals):.1f} % |"
            print(row)


def ledger(pr, commit, set_dirs):
    row = {
        "pr": pr,
        "commit": commit,
        "nproc": os.cpu_count(),
        "run_seconds": spec()["run_seconds"],
        "workloads": {},
    }
    for w in [w["name"] for w in spec()["workloads"]]:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            docs = [d for s in set_dirs for d in runs(s, trace).get(w, [])]
            if not docs:
                continue
            entry[key + "_runs"] = len(docs)
            entry[key] = {
                m: statistics.median(d["result"]["metrics"][m]["value"] for d in docs)
                for m in docs[0]["result"]["metrics"]
            }
        row["workloads"][w] = entry
    json.dump(row, sys.stdout, indent=1)
    print()


def main(argv):
    if argv and argv[0] == "--table" and len(argv) > 1:
        table(argv[1:])
        return 0
    if len(argv) > 4 and argv[0] == "--pr" and argv[2] == "--commit":
        ledger(int(argv[1]), argv[3], argv[4:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
