#!/usr/bin/env bash
# The determinism ledger's one tool. scripts/goldens.txt holds every
# value the determinism contract pins, one `name value` row each; this
# script computes every row in one pass and compares:
#
#   scripts/goldens.sh --check      # list every moved row; exit 1 if any
#   scripts/goldens.sh --record     # write the moved rows into the ledger
#   scripts/goldens.sh --self-test  # prove the comparator on a scratch ledger
#
# --check prints one `name old → new` line per row that moved, per ledger
# row nothing computed (`name old → (none)`) and per computed row the
# ledger lacks (`name (none) → new`), and one `name disagrees: …` line per
# row two runs computed differently (a journal, a compare table, the
# engine row or a policy.* row at 1 and at 4 workers).
# --record applies those same lines to the ledger in place, keeping its
# comments and order; a row it adds goes after the row computed before it.
# It refuses while a run failed or two runs disagree. The `engine.*` and
# `policy.*` rows are computed by tests/determinism.rs and
# tests/policy_bits.rs, which read the ledger themselves and fail with the
# same lines; both run at TOPFULL_WORKERS=1 and =4, since training (the
# policy.* rows) follows that variable like every other run plan.
# TOPFULL_WORKERS sets the figures' worker count as it always does. Run
# outputs are kept under target/goldens/.
set -uo pipefail
cd "$(dirname "$0")/.."
LEDGER=scripts/goldens.txt
OUT=target/goldens

# Every scenario whose decision journal is pinned: the paths the control
# loop takes under sharding, the front door's coalescing and its priority
# gate (priority hybrid), a recovery-probe collapse escalation (fuzz
# 2-10), RateBlocked / Release / empty-group reasons (boutique surge), the
# hardened loop under stall + watchdog (gray failure), a pod kill from the
# fault schedule (train-ticket station failure), the retry storm under
# DAGOR, unbounded and budgeted, and the burn-rate monitor's ok → page →
# ticket ladder with no controller (SLO burn lead; verify.sh's explain
# smokes read its run), the paper's documents under their own TopFull:
# Fig. 4's two-API overload (paper/fig04), Fig. 8's users (paper/fig08),
# Fig. 10's trace demo and Train Ticket rows (paper/fig10_trace,
# paper/fig10_tt), Fig. 11's and Fig. 12's ranked APIs (paper/fig11,
# paper/fig12), Table 2's Post Checkout surge (paper/fig13), TopFull
# beside the HPA and a VM pool on Train Ticket (paper/fig14, which is
# Fig. 17's Transfer-TT arm too) and on Online Boutique (paper/fig15),
# Fig. 16's spikes at each app's scarcest allocation (paper/fig16_tt,
# paper/fig16_ob) and Fig. 18's ts-station pod kill (paper/fig18), and
# the refinement ablation's four scenarios under every refinement
# (refinement_*). The matrix's 12 cells are rows too, so a cell more or
# fewer is a missing or an orphan row, and so is its whole report.
SCENARIOS=(sharded_surge read_flash_crowd priority_hybrid found/fuzz_2_10_breach
  boutique_surge_topfull gray_failure_chaos trainticket_station_failure
  retry_storm_dagor retry_storm_dagor_budgeted slo_burn_lead paper/fig04 paper/fig08
  paper/fig10_trace paper/fig10_tt paper/fig11 paper/fig12 paper/fig13 paper/fig14
  paper/fig15 paper/fig16_tt paper/fig16_ob paper/fig18 refinement_tt refinement_ob
  refinement_offender refinement_skew)
# Every scenario whose `topfull compare` table is pinned. Fig. 8's runs
# none, DAGOR, Breakwater, WISP, TopFull-MIMD and the document's own
# TopFull, so WISP is bit-pinned here and nowhere else. tests/paper.rs
# asserts the other arms of the paper's documents (Fig. 4's DAGOR, Fig. 9's
# populations, Fig. 10's components, Figs. 11 and 12's DAGOR, Table 2's
# DAGOR steps, §6.3's controllers, models, VM startups and allocations,
# Fig. 18's no control) and tests/extensions.rs the refinements switched
# off, but neither pins their bits.
COMPARE=(paper/fig08)
MATRIX=overload_arms
# The deterministic `figures` experiments; `training-cost` (a timing) is
# left out.
EXPERIMENTS=(table1 trace-analysis)

hash() { sha256sum | cut -c1-16; } # of stdin
failed=0
note() { echo "goldens: $*" >&2; failed=1; }

# compute <rows-file>: write one `name value` line per computed row.
compute() {
  local rows=$1 w s f fp panics
  mkdir -p "$OUT"
  : > "$rows"
  row() { echo "$1 $2" >> "$rows"; }
  cargo build --release --workspace -q || { note "cargo build failed"; return; }

  # The tests' rows at 1 and at 4 workers: the two must agree, so a
  # policy.* row shows that training does not depend on the worker count.
  # A test that fails on a moved row is not a failed run; any other
  # failure (a panic before the rows, a build error) is.
  for w in 1 4; do
    f=$OUT/tests.w$w.log
    if ! TOPFULL_WORKERS=$w cargo test -q --no-fail-fast --test determinism --test policy_bits \
      -- --nocapture > "$f" 2>&1; then
      panics=$(grep -c 'panicked at' "$f")
      [ "$panics" -gt 0 ] && [ "$panics" -eq "$(grep -c '^rows of scripts/goldens.txt moved' "$f")" ] \
        || note "a golden test failed at $w workers, see $f"
    fi
    grep -oE 'golden [a-z0-9_.]+ 0x[0-9a-f]{16}' "$f" | cut -d' ' -f2- | sort -s -k1,1 >> "$rows"
  done

  # Each journal and compare table at 1 and at 4 workers: the two must
  # agree. A `run` is one thread, so the two passes run side by side,
  # each into its own rows file; those are appended in pass order.
  local pids=() pid
  for w in 1 4; do
    (
      rows=$rows.w$w
      : > "$rows"
      for s in "${SCENARIOS[@]}"; do
        f=$OUT/${s//\//_}.w$w.json
        if TOPFULL_WORKERS=$w target/release/topfull run "scenarios/$s.json" --json > "$f" \
          && fp=$(target/release/topfull explain "$f" --fingerprint); then
          row "journal.$s" "${fp%% *}"
        else
          note "scenarios/$s.json did not run at $w workers"
        fi
      done
      for s in "${COMPARE[@]}"; do
        f=$OUT/${s//\//_}.compare.w$w.txt
        if TOPFULL_WORKERS=$w target/release/topfull compare "scenarios/$s.json" > "$f"; then
          row "compare.$s" "$(hash < "$f")"
        else
          note "scenarios/$s.json did not compare at $w workers"
        fi
      done
      f=$OUT/$MATRIX.w$w.json
      target/release/topfull matrix "scenarios/matrix/$MATRIX.json" --workers $w --json > "$f" \
        || note "scenarios/matrix/$MATRIX.json did not run at $w workers"
      awk -F'"' -v m="journal.matrix/$MATRIX" '/"id":/ { id = $4 }
        /"journal_fingerprint":/ { print m "#" id, $4 }' "$f" >> "$rows"
      row "matrix.$MATRIX" "$(hash < "$f")"
      exit $failed
    ) &
    pids+=($!)
  done
  for pid in "${pids[@]}"; do wait "$pid" || failed=1; done
  cat "$rows.w1" "$rows.w4" >> "$rows"

  row benchmark/golden.json "$(hash < benchmark/golden.json)"

  # Each file the experiments say they saved, and the report text less
  # those `(saved <path>)` lines, which name the checkout.
  target/release/figures "${EXPERIMENTS[@]}" > "$OUT/figures.stdout" \
    || note "figures failed"
  for f in $(sed -n 's|^(saved .*/\(.*\.json\))$|\1|p' "$OUT/figures.stdout"); do
    row "figures.$f" "$(hash < "artifacts/results/$f")"
  done
  row figures.stdout "$(grep -v '^(saved ' "$OUT/figures.stdout" | hash)"
}

# compare <ledger> <rows>: print every moved, orphan, missing or
# disagreeing row; exit 1 if there is one.
compare() {
  awk 'NR == FNR {
         if (!($1 in got)) { got[$1] = $2; order[++n] = $1 }
         else if (got[$1] != $2) { print $1 " disagrees: " got[$1] " ≠ " $2; bad = 1 }
         next
       }
       /^#/ || NF == 0 { next }
       $1 in seen { print $1 " is in the ledger twice"; bad = 1; next }
       { seen[$1] = 1 }
       !($1 in got) { print $1 " " $2 " → (none)"; bad = 1; next }
       got[$1] != $2 { print $1 " " $2 " → " got[$1]; bad = 1 }
       END {
         for (i = 1; i <= n; i++)
           if (!(order[i] in seen)) { print order[i] " (none) → " got[order[i]]; bad = 1 }
         exit bad
       }' "$2" "$1"
}

# record <ledger> <rows>: apply compare's lines to the ledger in place.
record() {
  local moved
  moved=$(compare "$1" "$2") && { echo "goldens: nothing moved"; return 0; }
  if grep -qv ' → ' <<<"$moved"; then
    echo "$moved"
    echo "goldens: nothing recorded while a row is computed twice or listed twice" >&2
    return 1
  fi
  awk 'FILENAME == ARGV[1] { old[$1] = $2; new[$1] = $4; next }
       FILENAME == ARGV[2] {
         if ($1 in placed) next
         placed[$1] = 1
         if (old[$1] == "(none)") after[anchor] = after[anchor] $1 " " $2 "\n"
         else anchor = $1
         next
       }
       /^#/ || NF == 0 { print; next }
       ($1 in new) && new[$1] == "(none)" { next }
       { print $1 " " ($1 in new ? new[$1] : $2)
         if ($1 in after) { printf "%s", after[$1]; delete after[$1] } }
       END { for (a in after) printf "%s", after[a] }' \
    <(echo "$moved") "$2" "$1" > "$1.new" && mv "$1.new" "$1"
  echo "$moved"
}

# A scratch ledger with the first and last rows perturbed, a row deleted
# from between two rows and an orphan appended, against the real ledger's
# rows as the computed ones: compare must name exactly those four and exit
# 1, and record must give back the real ledger byte for byte.
self_test() {
  local dir want got
  dir=$(mktemp -d)
  trap "rm -rf $dir" EXIT
  grep -v '^#' "$LEDGER" | grep . > "$dir/rows"
  awk 'NR == 1 { print $1, "0x0" } END { print $1, "0x1" }' "$dir/rows" > "$dir/perturbed"
  awk 'NR > 2 && NF && !/^#/ && prev != "" && prev !~ /^#/ { print $1, $2; exit } { prev = $0 }' \
    "$LEDGER" > "$dir/gone"
  awk -v gone="$(cut -d' ' -f1 "$dir/gone")" '
       FILENAME == ARGV[1] { bad[$1] = $2; next }
       $1 == gone { next }
       $1 in bad { print $1, bad[$1]; next }
       { print }
       END { print "selftest.orphan 0x2" }' "$dir/perturbed" "$LEDGER" > "$dir/ledger"
  want=$( (
    while read -r name value; do
      echo "$name $value → $(awk -v n="$name" '$1 == n { print $2 }' "$dir/rows")"
    done < "$dir/perturbed"
    echo "selftest.orphan 0x2 → (none)"
    awk '{ print $1 " (none) → " $2 }' "$dir/gone"
  ) | sort)
  got=$(compare "$dir/ledger" "$dir/rows") \
    && { echo "goldens.sh self-test: compare found nothing on a perturbed ledger"; exit 1; }
  [ "$(sort <<<"$got")" = "$want" ] \
    || { printf 'goldens.sh self-test: compare said\n%s\nexpected\n%s\n' "$got" "$want"; exit 1; }
  record "$dir/ledger" "$dir/rows" > /dev/null
  cmp -s "$dir/ledger" "$LEDGER" \
    || { echo "goldens.sh self-test: record did not restore the ledger"; diff "$LEDGER" "$dir/ledger"; exit 1; }
  echo "goldens.sh self-test: OK"
}

case "${1:-}" in
  --self-test) self_test ;;
  --check | --record)
    compute "$OUT/rows"
    rows=$(cut -d' ' -f1 "$OUT/rows" | sort -u | wc -l)
    if [ "$1" = --check ]; then
      if moved=$(compare "$LEDGER" "$OUT/rows"); then
        [ $failed -eq 0 ] && echo "goldens: $rows rows, none moved" && exit 0
      else
        echo "$moved"
        echo "goldens: $(grep -c . <<<"$moved") of $rows rows differ; scripts/goldens.sh --record writes them"
      fi
      exit 1
    fi
    [ $failed -eq 0 ] || { echo "goldens: a run failed; nothing recorded" >&2; exit 1; }
    record "$LEDGER" "$OUT/rows"
    ;;
  *)
    echo "usage: $0 --check | --record | --self-test" >&2
    exit 2
    ;;
esac
