#!/usr/bin/env bash
# The house rule for a performance claim as one command: alternating
# parent/change pairs of one gated benchmark workload, summarised the
# way artifacts/perf/PR-*.md tables are.
#
#   scripts/pairs.sh <parent-checkout> <workload> [pairs] [first-seed]
#   scripts/pairs.sh ../parent sim.boutique            # 10 pairs, seeds 251-260
#   RUN_SECONDS=8 scripts/pairs.sh ../parent control.alibaba 4 201
#
# Copies the parent checkout (a `git clone` of the parent commit) and
# this one, less their build outputs, to $TMPDIR/topfull_pairs/src/parent
# and .../src/change ($TMPDIR defaults to /tmp) and builds benchmark/ in
# each the way BENCHMARK.json does. The source paths a binary embeds then
# have one length, which alone moved `setup_s` by +22 % between two builds
# of the same code, and are the same at every invocation, so two runs on
# one tree build the same binaries (a random directory name gave every
# build its own symbol sizes). The directory is cleared at the start and
# removed at the end; a second invocation while one runs refuses to start.
# Neither checkout is touched, its benchmark/Cargo.lock included. Pair i
# uses seed first-seed + i and runs the parent first when i is even, the
# change first when odd; each run lasts
# BENCHMARK.json's run_seconds unless RUN_SECONDS says otherwise.
#
# Prints one row per end-to-end metric — each side's median [q1, q3],
# the change's Δ from the parent's median, the pairs the change wins
# (reads better, by the metric's direction in BENCHMARK.json; ties count
# for neither) and the parent's inter-quartile distance over its median,
# the spread a claimed gain must clear — then the pairs one by one for
# the first metric. Then the placement table: every function symbol
# whose `nm -S` size differs between the two binaries, or that only one
# of them has, largest move first — so a 2–7 % move on a workload whose
# code the change did not touch can be read against the code that did
# move. Exits 1 if any run was not `correct` or counted a failure. Not
# part of verify.sh: 2 × pairs × run_seconds of wall time.
set -euo pipefail
[ $# -ge 2 ] && [ $# -le 4 ] \
  || { echo "usage: $0 <parent-checkout> <workload> [pairs] [first-seed]" >&2; exit 2; }
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
workload=$2
pairs=${3:-10}
seed0=${4:-251}
seconds=${RUN_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/BENCHMARK.json")}
# `name better` for each end-to-end metric.
directions=$(awk -F'"' '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
  e && $2 == "name" { n = $4 } e && $2 == "better" { print n, $4 }' "$here/BENCHMARK.json")

tmp=${TMPDIR:-/tmp}/topfull_pairs
exec 9> "$tmp.lock"
flock -n 9 || { echo "$0: another run holds $tmp.lock" >&2; exit 1; }
rm -rf "$tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
  tree=$parent
  [ $side = change ] && tree=$here
  mkdir -p "$tmp/src/$side"
  tar -C "$tree" --exclude=./.git --exclude=./target --exclude=./benchmark/target -cf - . \
    | tar -C "$tmp/src/$side" -xf -
  (cd "$tmp/src/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
  cp "$tmp/src/$side/benchmark/target/release/topfull-benchmark" "$tmp/$side"
done

# One line per run and metric: `side pair seed metric value`, plus a
# `correct` / `failed` pseudo-metric per run.
run() { # $1 = side, $2 = pair
  local seed=$((seed0 + $2)) line
  line=$(cd "$tmp/src/$1" && "$tmp/$1" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1) || true
  grep -o '"[a-z0-9_]*":{"value":[^,}]*' <<<"$line" \
    | sed 's/"\([a-z0-9_]*\)":{"value":\(.*\)/\1 \2/' \
    | while read -r metric value; do echo "$1 $2 $seed $metric $value"; done
  echo "$1 $2 $seed correct $(grep -c '"correct":true' <<<"$line")"
  echo "$1 $2 $seed failed $(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")"
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do run "$side" "$i" >> "$tmp/runs"; done
  echo "pair $((i + 1))/$pairs done" >&2
done

status=0
echo "### \`$workload\` — $pairs alternating pairs, ${seconds} s, seeds $seed0–$((seed0 + pairs - 1))"
echo
awk -v pairs="$pairs" -v dirs="$directions" '
  function sort(a, n,   i, j, v) {
    for (i = 2; i <= n; i++) {
      v = a[i]
      for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
      a[j + 1] = v
    }
  }
  # Linear interpolation between order statistics of a sorted a[1..n].
  function q(a, n, p,   pos, lo) {
    pos = 1 + (n - 1) * p
    lo = int(pos)
    return lo >= n ? a[n] : a[lo] + (a[lo + 1] - a[lo]) * (pos - lo)
  }
  function cell(a, n) { return sprintf("%.6g [%.6g, %.6g]", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75)) }
  BEGIN {
    nd = split(dirs, d, /[ \n]/)
    for (i = 1; i < nd; i += 2) { better[d[i]] = d[i + 1]; order[++nm] = d[i] }
  }
  { v[$1, $2, $4] = $5 + 0; seed[$2] = $3 }
  $4 == "correct" && $5 != 1 { bad++ }
  $4 == "failed" && $5 != 0 { bad++ }
  END {
    print "| metric | parent | change | Δ | wins | parent IQR / median |"
    print "|---|---|---|---|---|---|"
    for (m = 1; m <= nm; m++) {
      name = order[m]
      if (!(("parent", 0, name) in v)) continue
      wins = 0
      for (i = 0; i < pairs; i++) {
        p[i + 1] = v["parent", i, name]; c[i + 1] = v["change", i, name]
        if (better[name] == "higher" ? c[i + 1] > p[i + 1] : c[i + 1] < p[i + 1]) wins++
      }
      sort(p, pairs); sort(c, pairs)
      mp = q(p, pairs, 0.5)
      printf "| `%s` | %s | %s | %+.1f %% | %d/%d | %.1f %% |\n", name, cell(p, pairs),
        cell(c, pairs), 100 * (q(c, pairs, 0.5) / mp - 1), wins, pairs,
        100 * (q(p, pairs, 0.75) - q(p, pairs, 0.25)) / mp
    }
    name = order[1]
    printf "\n| pair | seed | parent `%s` | change | change / parent |\n", name
    print "|---|---|---|---|---|"
    for (i = 0; i < pairs; i++)
      printf "| %d | %d | %.6g | %.6g | %.3f× |\n", i, seed[i], v["parent", i, name], v["change", i, name],
        v["change", i, name] / v["parent", i, name]
    printf "\n%d runs, %d not correct or with failures\n", 2 * pairs, bad
    exit (bad > 0)
  }' "$tmp/runs" || status=$?

# `size name` per function symbol of one binary, the per-instantiation
# `::h<hash>` suffix dropped and a generic function's copies added up.
sizes() {
  nm -S -C -t d --defined-only "$tmp/$1" | awk '
    $3 ~ /^[tTwW]$/ { size = $2 + 0; $1 = $2 = $3 = ""; sub(/^ +/, ""); sub(/::h[0-9a-f]{16}$/, "")
                      bytes[$0] += size }
    END { for (name in bytes) printf "%d\t%s\n", bytes[name], name }'
}
sizes parent > "$tmp/parent.syms"
sizes change > "$tmp/change.syms"
echo
echo "Placement: function symbols whose \`nm -S\` size differs, largest move first (bytes)"
echo
echo "| symbol | parent | change | Δ |"
echo "|---|---|---|---|"
awk -F'\t' '
  function row(n, was, is, delta) {
    printf "%d\t| `%s` | %s | %s | %+d |\n", delta < 0 ? -delta : delta, n, was, is, delta
  }
  FNR == NR { p[$2] = $1; next }
  { c[$2] = $1 }
  END {
    for (n in p) { ptext += p[n]; if (!(n in c)) row(n, p[n], "—", -p[n]) }
    for (n in c) {
      ctext += c[n]
      if (!(n in p)) row(n, "—", c[n], c[n])
      else if (p[n] != c[n]) row(n, p[n], c[n], c[n] - p[n])
    }
    printf "all function symbols: %d → %d bytes (%+d)\n", ptext, ctext, ctext - ptext > "/dev/stderr"
  }' "$tmp/parent.syms" "$tmp/change.syms" 2> "$tmp/text" \
  | sort -t$'\t' -k1,1nr | awk 'NR <= 30' | cut -f2-
echo
cat "$tmp/text"
exit "$status"
