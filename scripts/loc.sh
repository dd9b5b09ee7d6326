#!/usr/bin/env bash
# Non-test source lines, the number ROADMAP's "net LoC should trend down"
# is judged by. Counting rule: every `*.rs` under a crate's `src/`
# except files named `tests.rs`; a column-0 `#[cfg(test)]` followed by a
# module is skipped — that one line for a declaration (`mod tests;`),
# through the closing column-0 `}` for an inline `mod tests {` — and
# counting resumes after it; blank lines and `//` comment lines (docs
# included) are dropped. (Until PR 24 the script *exited* the file at
# the first such pair, so whatever followed a `mod tests;` near the top
# of a file — all of `Engine` — went uncounted.) Prints one line per
# crate, the `crates/*/src` total, `shims/` under the same rule plus its
# raw line count (all files) so deleting a shim crate shows in full, and
# their sum — the shims are this repository's code too, so a function
# moved from a crate into one is counted as a move, not a deletion.
#
#   scripts/loc.sh              # this checkout
#   scripts/loc.sh <dir>        # another checkout, e.g. a parent clone
#   scripts/loc.sh --self-test  # count a fixture; verify.sh runs it first
set -euo pipefail

code_lines() { # $1 = directory
  find "$1" -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    awk 'skip { if (/^}/) skip = 0; next }
         /^#\[cfg\(test\)\]/ && (getline nxt) > 0 {
           if (nxt ~ /^mod [a-z0-9_]+;/) next
           if (nxt ~ /^mod [a-z0-9_]+ \{/) { skip = 1; next }
           print; print nxt; next
         }
         { print }' "$f"
  done | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

if [ "${1:-}" = --self-test ]; then
  # Code, an inline test module, code (a `#[cfg(test)]` item that is not
  # a module counts, as it always has), a test-module declaration, code:
  # 2 + 3 + 1 = 6 lines. A counter that exits at the first test module
  # sees 2.
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' EXIT
  cat > "$dir/fixture.rs" <<'RS'
//! A doc line, not counted.
fn before() {}

const A: u32 = 1;
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(A, 1);
    }
}

fn between() {}
#[cfg(test)]
fn helper() {}
#[cfg(test)]
mod more_tests;
// A comment, not counted.
pub struct After;
RS
  got=$(code_lines "$dir")
  [ "$got" -eq 6 ] || { echo "loc.sh self-test: counted $got lines of the fixture, expected 6"; exit 1; }
  echo "loc.sh self-test: OK"
  exit 0
fi
cd "${1:-"$(dirname "$0")/.."}"

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
