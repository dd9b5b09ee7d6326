#!/usr/bin/env bash
# Prove a refactor of `crates/bench` changes no figure: build `figures`
# in this checkout and in a parent checkout, run the deterministic
# experiments in both and `cmp` every artifacts/results/*.json they
# write (each binary writes under its own checkout — a compile-time
# path). About a minute per side and worker setting on a 2-vCPU host.
# `sim2real`, `multishard` (wall-clock live arms) and `training-cost`
# (a timing) are not byte-reproducible and are left out.
#
#   scripts/figures_diff.sh <parent-checkout>                 # default worker count
#   TOPFULL_WORKERS=1 scripts/figures_diff.sh <parent-checkout>
#
# The parent is a `git clone` of the parent commit (it needs
# artifacts/models/, which are tracked). Exits 1 naming each file that
# differs, or that one side wrote and the other did not, and unless
# exactly EXPECTED_FILES were compared.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <parent-checkout>" >&2; exit 2; }
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)

EXPERIMENTS=(table1 fig4 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16
  fig17 fig18 fig19 retry-storm metastable refinements trace-analysis chaos
  slo admission)
# What they save: one file each, `admission` two.
EXPECTED_FILES=22

for side in "$parent" "$here"; do
  (cd "$side" && cargo build --release --offline -q -p topfull-bench --bin figures)
  (cd "$side" && target/release/figures "${EXPERIMENTS[@]}" > "$side/target/figures_diff.stdout")
done

status=0
# Report text too, less the "(saved <path>)" lines, which name the checkout.
cmp -s <(grep -v '^(saved ' "$parent/target/figures_diff.stdout") \
       <(grep -v '^(saved ' "$here/target/figures_diff.stdout") \
  || { echo "DIFFERS: report text (target/figures_diff.stdout)"; status=1; }
# Only what this run said it wrote: other experiments' results stay untouched.
written() { sed -n 's|^(saved .*/\(.*\.json\))$|\1|p' "$1/target/figures_diff.stdout"; }
names=$( (written "$parent"; written "$here") | sort -u)
[ "$(written "$parent" | sort)" = "$(written "$here" | sort)" ] \
  || { echo "DIFFERS: the set of files each side wrote"; status=1; }
for f in $names; do
  if cmp -s "$parent/artifacts/results/$f" "$here/artifacts/results/$f"; then
    echo "identical: $f"
  else
    echo "DIFFERS: $f"
    status=1
  fi
done
count=$(grep -c . <<<"$names" || true)
[ "$count" -eq $EXPECTED_FILES ] \
  || { echo "WRONG COUNT: $count result files compared, expected $EXPECTED_FILES"; status=1; }
[ $status -eq 0 ] && echo "all $count result files byte-identical"
exit $status
