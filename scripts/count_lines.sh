#!/usr/bin/env bash
# Print the non-test line count of the product code: every tracked `.rs`
# file under `crates/*/src` and `src/`, each counted up to (not including)
# its first `#[cfg(test)]` line. One `<lines> <crate>` row per crate (and
# `src` for the root package) comes first; the last line is the bare total.
#
#   scripts/count_lines.sh          the current count
#   scripts/count_lines.sh REV      against git revision REV
#
# With REV each row reads `<lines at REV> <lines now> <delta> <crate>`,
# then a `total` row of the same shape, then the bare total (now). REV's
# files are read from `git archive` into a temporary directory, so the
# working tree and the index are left untouched. Run from anywhere inside
# the repository.
set -euo pipefail
export LC_ALL=C
cd "$(git rev-parse --show-toplevel)"
# A pathspec `*` also matches `/`, so these cover nested modules too.
paths=('crates/*/src/*.rs' 'src/*.rs')

# `<lines> <crate>` rows, sorted by crate, for the NUL-separated file
# names on stdin (relative to the current directory).
per_crate() {
  xargs -0 -r awk '
      FNR == 1 {
        counting = 1
        split(FILENAME, part, "/")
        unit = part[1] == "crates" ? part[2] : part[1]
      }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n[unit]++ }
      END { for (u in n) print n[u], u }
    ' \
    | awk '{ lines[$2] += $1 } END { for (u in lines) print lines[u], u }' \
    | sort -k2
}

now="$(git ls-files -z -- "${paths[@]}" | per_crate)"
if [ $# -eq 0 ]; then
  printf '%s\n' "$now"
  printf '%s\n' "$now" | awk '{ total += $1 } END { print total + 0 }'
  exit 0
fi

rev="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "count_lines.sh: not a revision: $1" >&2
  exit 2
}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" -- "${paths[@]}" | tar -x -C "$tmp"
then="$(cd "$tmp" && find . -type f -name '*.rs' -printf '%P\0' | per_crate)"
join -j 2 -a 1 -a 2 -e 0 -o 0,1.1,2.1 \
  <(printf '%s\n' "$then") <(printf '%s\n' "$now") \
  | awk '{
      printf "%d %d %+d %s\n", $2, $3, $3 - $2, $1
      before += $2; after += $3
    }
    END {
      printf "%d %d %+d total\n", before, after, after - before
      print after + 0
    }'
