#!/usr/bin/env bash
# Two-process smoke: the ISSUE acceptance scenario as separate OS
# processes over a Unix-domain socket. One server, two clients on a
# shared contended database (client 1 crashes mid-run and recovers via
# the §3.3 protocol), then a fresh verifier process re-reads every
# object over the wire and compares against the oracle dumps the
# clients wrote. Everything must exit 0.
#
# A second leg repeats the drill against a partitioned page service:
# two server *processes* (--partition 0/2 and 1/2), two clients routing
# across both over one connection per instance, and the verifier
# merging both layout manifests.
#
# Each server prints `socket: requests=N pool_threads=M ...` at exit; every
# server must have served at least 100 requests on at most 8 pool threads
# (no thread per request) and counted no socket error. Each client prints
# `socket: replies_handed_off=N` (replies one caller read for another) at
# exit; the line must be there on both legs.
#
# Usage: scripts/two_process_smoke.sh [path-to-fgl_node]
# Builds the release binary when no path is given.
set -euo pipefail

cd "$(dirname "$0")/.."

NODE="${1:-}"
if [[ -z "$NODE" ]]; then
    cargo build --release -q --bin fgl_node
    NODE=target/release/fgl_node
fi

DIR="$(mktemp -d "${TMPDIR:-/tmp}/fgl-smoke.XXXXXX")"
DIR2="$(mktemp -d "${TMPDIR:-/tmp}/fgl-smoke-multi.XXXXXX")"
SERVER_PID=
MS0_PID=
MS1_PID=
cleanup() {
    for pid in "$SERVER_PID" "$MS0_PID" "$MS1_PID"; do
        [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$DIR" "$DIR2"
}
trap cleanup EXIT

# check_socket_line LOG: print a server's log, then check its exit line.
check_socket_line() {
    local line n m
    cat "$1" >&2
    line="$(grep '^socket: ' "$1")" || { echo "$1: no socket line" >&2; return 1; }
    n="$(sed -E 's/.*requests=([0-9]+).*/\1/' <<<"$line")"
    m="$(sed -E 's/.*pool_threads=([0-9]+).*/\1/' <<<"$line")"
    (( n >= 100 && m <= 8 )) || { echo "a thread per request? $line" >&2; return 1; }
    ! grep -Eq '(failed|bad_frame)=[1-9]' <<<"$line" || { echo "socket errors: $line" >&2; return 1; }
}

# check_client_line LOG: print a client's log, then check its exit line.
check_client_line() {
    cat "$1" >&2
    grep -Eq '^socket: replies_handed_off=[0-9]+$' "$1" || { echo "$1: no replies_handed_off line" >&2; return 1; }
}

"$NODE" server --dir "$DIR" --pages 8 --objects 8 --exit-when "$DIR/stop" 2>"$DIR/server.log" &
SERVER_PID=$!

for _ in $(seq 1 300); do
    [[ -f "$DIR/layout" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died before publishing layout" >&2; exit 1; }
    sleep 0.2
done
[[ -f "$DIR/layout" ]] || { echo "server never published layout" >&2; exit 1; }

"$NODE" client --dir "$DIR" --id 1 --clients 2 --txns 30 --crash-at 10 2>"$DIR/client1.log" &
C1=$!
"$NODE" client --dir "$DIR" --id 2 --clients 2 --txns 30 2>"$DIR/client2.log" &
C2=$!
wait "$C1" || { cat "$DIR/client1.log" >&2; echo "client 1 failed" >&2; exit 1; }
wait "$C2" || { cat "$DIR/client2.log" >&2; echo "client 2 failed" >&2; exit 1; }
check_client_line "$DIR/client1.log"
check_client_line "$DIR/client2.log"

"$NODE" verify --dir "$DIR" || { echo "verify failed" >&2; exit 1; }

touch "$DIR/stop"
wait "$SERVER_PID" || { cat "$DIR/server.log" >&2; echo "server exited non-zero" >&2; exit 1; }
SERVER_PID=
check_socket_line "$DIR/server.log"

echo "two-process smoke: ok"

# ---- multi-server leg: 2 server processes, 2 clients, 1 verifier ----------

"$NODE" server --dir "$DIR2" --pages 6 --objects 8 --partition 0/2 --exit-when "$DIR2/stop" 2>"$DIR2/server0.log" &
MS0_PID=$!
"$NODE" server --dir "$DIR2" --pages 6 --objects 8 --partition 1/2 --exit-when "$DIR2/stop" 2>"$DIR2/server1.log" &
MS1_PID=$!

for _ in $(seq 1 300); do
    [[ -f "$DIR2/layout-0" && -f "$DIR2/layout-1" ]] && break
    for pid in "$MS0_PID" "$MS1_PID"; do
        kill -0 "$pid" 2>/dev/null || { echo "a partition server died before publishing its layout" >&2; exit 1; }
    done
    sleep 0.2
done
[[ -f "$DIR2/layout-0" && -f "$DIR2/layout-1" ]] || { echo "partition servers never published layouts" >&2; exit 1; }

"$NODE" client --dir "$DIR2" --id 1 --clients 2 --txns 30 --crash-at 10 --partitions 2 2>"$DIR2/client1.log" &
M1=$!
"$NODE" client --dir "$DIR2" --id 2 --clients 2 --txns 30 --partitions 2 2>"$DIR2/client2.log" &
M2=$!
wait "$M1" || { cat "$DIR2/client1.log" >&2; echo "multi-server client 1 failed" >&2; exit 1; }
wait "$M2" || { cat "$DIR2/client2.log" >&2; echo "multi-server client 2 failed" >&2; exit 1; }
check_client_line "$DIR2/client1.log"
check_client_line "$DIR2/client2.log"

"$NODE" verify --dir "$DIR2" --partitions 2 || { echo "multi-server verify failed" >&2; exit 1; }

touch "$DIR2/stop"
wait "$MS0_PID" || { cat "$DIR2/server0.log" >&2; echo "partition server 0 exited non-zero" >&2; exit 1; }
MS0_PID=
wait "$MS1_PID" || { cat "$DIR2/server1.log" >&2; echo "partition server 1 exited non-zero" >&2; exit 1; }
MS1_PID=
check_socket_line "$DIR2/server0.log"
check_socket_line "$DIR2/server1.log"

echo "two-process smoke (multi-server): ok"
