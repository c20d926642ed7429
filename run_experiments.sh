#!/bin/sh
# Run the full experiment suite (every bin in ci/experiments.txt: E1-E10,
# E14-E18). Pass --quick for smaller sweeps.
# Each binary also writes machine-readable metrics JSON (counters +
# latency histograms per sweep point) to $FGL_METRICS_DIR (default
# ./metrics).
set -e
FGL_METRICS_DIR="${FGL_METRICS_DIR:-metrics}"
export FGL_METRICS_DIR
mkdir -p "$FGL_METRICS_DIR"
for exp in $(awk '{ print $1 }' "$(dirname "$0")/ci/experiments.txt"); do
  cargo run --release -q -p fgl-bench --bin "$exp" -- "$@"
  echo
done
echo "metrics JSON in $FGL_METRICS_DIR/"
