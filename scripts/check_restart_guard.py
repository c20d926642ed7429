#!/usr/bin/env python3
"""Fail unless a benchmark result line (stdin) is correct, failed no
operation, and has a restart metric above zero and under a limit.

    check_restart_guard.py LIMIT_MS [METRIC]

METRIC defaults to `server_restart_ms`. `make bench-check` pipes the last
line of two short runs through this:

- a `simlat_fanin` run with a 50-transaction server drill: restart after
  that load took ~21 s while §3.4 ran once per (page, client) unit, and
  takes ~0.1 s now;
- a `private_commit` run whose client drill has 256 pages, four times the
  client cache, checked on `client_recovery_ms`: client restart refused
  such a working set (no drill completed, the metric read 0) until redo
  ran in cache-sized windows.
"""
import json
import sys


def main() -> int:
    limit = float(sys.argv[1])
    metric = sys.argv[2] if len(sys.argv) > 2 else "server_restart_ms"
    result = json.loads(sys.stdin.readline())
    ms = result["metrics"][metric]["value"]
    failed = result["failed"]
    ok = result["correct"] is True and failed == 0 and 0 < ms < limit
    print(
        f"restart guard: correct={result['correct']} failed={failed} "
        f"{metric}={ms:.1f} (limit {limit:.0f}) {'ok' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
