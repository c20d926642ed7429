#!/usr/bin/env bash
# Print the non-test line count of the product code: every tracked `.rs`
# file under `crates/*/src` and `src/`, each counted up to (not including)
# its first `#[cfg(test)]` line. One `<lines> <crate>` row per crate (and
# `src` for the root package) comes first; the last line is the bare total.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
# A pathspec `*` also matches `/`, so these cover nested modules too.
git ls-files -z -- 'crates/*/src/*.rs' 'src/*.rs' \
  | xargs -0 awk '
      FNR == 1 {
        counting = 1
        split(FILENAME, part, "/")
        unit = part[1] == "crates" ? part[2] : part[1]
      }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n[unit]++ }
      END { for (u in n) print n[u], u }
    ' \
  | awk '{ lines[$2] += $1; total += $1 }
         END {
           for (u in lines) print lines[u], u | "sort -k2"
           close("sort -k2")
           print total + 0
         }'
