#!/usr/bin/env python3
"""Fail unless a benchmark result line (stdin) is correct and its
`server_restart_ms` is under the limit given as the only argument.

`make bench-check` pipes the last line of a short `simlat_fanin` run with
a 50-transaction server drill through this: restart after that load took
~21 s while §3.4 ran once per (page, client) unit, and takes ~0.1 s now.
"""
import json
import sys


def main() -> int:
    limit = float(sys.argv[1])
    result = json.loads(sys.stdin.readline())
    ms = result["metrics"]["server_restart_ms"]["value"]
    ok = result["correct"] is True and ms < limit
    print(
        f"restart guard: correct={result['correct']} "
        f"server_restart_ms={ms:.1f} (limit {limit:.0f}) {'ok' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
