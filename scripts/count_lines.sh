#!/usr/bin/env bash
# Print the non-test line count of the product code: every tracked `.rs`
# file under `crates/*/src` and `src/`, each counted up to (not including)
# its first `#[cfg(test)]` line. Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
# A pathspec `*` also matches `/`, so these cover nested modules too.
git ls-files -z -- 'crates/*/src/*.rs' 'src/*.rs' \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }
    ' \
  | awk '{ total += $1 } END { print total + 0 }'
