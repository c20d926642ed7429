#!/usr/bin/env bash
# The repo benchmark's entry point (BENCHMARK.json: ["bash", "benchmark/run.sh"]).
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the contract)
#   run.sh --check                 every workload at 1 % length plus the probes,
#                                  names and units validated against BENCHMARK.json
#   run.sh --repeat K              the whole set (ten runs per workload) K times,
#                                  then compare.py on the first and the last set
#
# Builds the package in release mode, offline, into $CARGO_TARGET_DIR or
# benchmark/target, then forwards the arguments. The last line of standard
# output of a single run is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The product's own tracing must stay off: the benchmark's spans travel in
# the same scheduler tag.
unset FGL_TRACE FGL_TRACE_OUT

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark/run.sh: $root is not a checkout of the repository (no Cargo.toml and crates/):" \
         "the benchmark builds the product from source and cannot run without it" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
bin="$target/release/fgl-benchmark"

build() {
    (cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet) >&2
}

# One field of BENCHMARK.json: the workload names, or run_seconds.
spec() {
    python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
print(" ".join(w["name"] for w in d["workloads"]) if sys.argv[2] == "workloads" else d[sys.argv[2]])' \
        "$root/BENCHMARK.json" "$1"
}

case "${1:-}" in
--check)
    build
    out="$here/out/check"
    mkdir -p "$out"
    for w in $(spec workloads); do
        for trace in 0 1; do
            "$bin" --workload "$w" --seed 1 --seconds 3 --trace "$trace" --scale 0.01 \
                --out "$out" >/dev/null 2>"$out/$w-$trace.log" || {
                echo "check: $w --trace $trace failed; see $out/$w-$trace.log" >&2
                exit 1
            }
            python3 "$here/compare.py" --validate "$out/$w-seed1-trace$trace.json" --trace "$trace" --short
        done
        echo "check: $w ok"
    done
    ;;
--repeat)
    sets="${2:?--repeat needs a count}"
    build
    secs="$(spec run_seconds)"
    out="$here/out/repeat"
    rm -rf "$out"
    mkdir -p "$out"
    for set in $(seq 1 "$sets"); do
        for w in $(spec workloads); do
            for i in $(seq 0 9); do
                seed=$((4000 + 1000 * set + i))
                "$bin" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 \
                    --out "$out/set$set" >/dev/null 2>>"$out/set$set.log" || {
                    echo "repeat: $w seed $seed failed; see $out/set$set.log" >&2
                    exit 1
                }
            done
            echo "set $set: $w done" >&2
        done
    done
    first="$(ls "$out"/set1/*-trace0.json | paste -sd,)"
    last="$(ls "$out/set$sets"/*-trace0.json | paste -sd,)"
    python3 "$here/compare.py" "$first" "$last"
    ;;
*)
    build
    exec "$bin" "$@"
    ;;
esac
