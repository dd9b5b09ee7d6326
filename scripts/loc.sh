#!/usr/bin/env bash
# Non-test source lines, the number ROADMAP's "net LoC should trend down"
# is judged by. Counting rule: every `*.rs` under a crate's `src/`
# except files named `tests.rs`; a file is cut at its first
# `#[cfg(test)]` + `mod tests` pair; blank lines and `//` comment lines
# (docs included) are dropped. Prints one line per crate, the
# `crates/*/src` total, `shims/` under the same rule plus its raw
# line count (all files) so deleting a shim crate shows in full, and
# their sum — the shims are this repository's code too, so a function
# moved from a crate into one is counted as a move, not a deletion.
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh <dir>      # another checkout, e.g. a parent clone
set -euo pipefail
cd "${1:-"$(dirname "$0")/.."}"

code_lines() { # $1 = directory
  find "$1" -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { if ((getline nxt) > 0 && nxt ~ /^mod tests/) exit
                               print; print nxt; next }
         { print }' "$f"
  done | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

total=0
for c in crates/*/; do
  n=$(code_lines "${c}src")
  printf '%-20s %6d\n' "${c%/}" "$n"
  total=$((total + n))
done
printf '%-20s %6d\n' 'crates/*/src' "$total"
raw=$(find shims -type f -print0 | xargs -0 cat | wc -l)
shims=$(code_lines shims)
printf '%-20s %6d  (%d raw lines, %d crates)\n' 'shims/' "$shims" "$raw" \
  "$(find shims -mindepth 1 -maxdepth 1 -type d | wc -l)"
printf '%-20s %6d\n' 'crates/*/src+shims/' "$((total + shims))"
