#!/usr/bin/env bash
# Tier-1 verification gate — the exact commands CI and the roadmap
# require to pass on every PR (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Where tier-1's time goes: `section NAME` ends the running section and
# starts the next, and on exit — a pass or the first failure — a table
# of each section's wall time and the total prints.
marks=()
section() { marks+=("$EPOCHREALTIME $*"); }
print_sections() {
  local status=$?
  marks+=("$EPOCHREALTIME end")
  printf '%s\n' "${marks[@]}" | awk -v status="$status" '
    NR == 1 { t0 = $1 }
    NR > 1 { printf "%8.1f s  %s\n", $1 - t, name }
    { t = $1; $1 = ""; name = substr($0, 2) }
    END { printf "%8.1f s  total (exit %d)\n", t - t0, status }'
}
trap print_sections EXIT

section loc ratchet

# ROADMAP's "net LoC should trend down", as a ratchet: the non-test
# lines under crates/*/src may not exceed the first line of
# scripts/loc_budget.txt, nor crates/*/src plus shims/ the second — code
# moved into a shim is still this repository's. A PR that needs more
# raises a number in its own diff, where a reviewer sees it; a PR that
# deletes lowers them to its new totals. The counter proves itself on a
# fixture first: it once stopped reading a file at its first test
# module, and the ratchet held a total 415 lines short for it.
scripts/loc.sh --self-test
counts=$(scripts/loc.sh)
line=0
for row in 'crates/*/src' 'crates/*/src+shims/'; do
  line=$((line + 1))
  loc=$(awk -v row="$row" '$1 == row { print $2 }' <<<"$counts")
  budget=$(sed -n "${line}p" scripts/loc_budget.txt)
  [ -n "$loc" ] && [ -n "$budget" ] && [ "$loc" -le "$budget" ] \
    || { echo "loc ratchet: $row has ${loc:-?} non-test lines, line $line of scripts/loc_budget.txt allows ${budget:-nothing}"; exit 1; }
done

# --workspace matters: the repo root is itself a package, so a bare
# `cargo build` would skip a dependency crate's binary (topfull) and
# every smoke below would run stale code.
section release build
cargo build --release --workspace
section debug tests
cargo test -q --workspace
# Debug tests never run `EventQueue::schedule`'s release-only clamp (a
# time behind the clock becomes `now` — and files behind the horizon);
# the oracle proptest applies it itself under debug assertions. And
# `rl::nn`'s kernel and the id-indexed clustering ship as opt-level 3
# code, unrolled and vectorised, so their bit-equality oracles run here
# too; the kernel's holds each tier this host runs (SSE2, AVX, picked at
# runtime) by calling it directly, not only the one dispatch picks, and
# its AVX2 + FMA `tanh` lanes to libm's bits.
# Likewise liveserve's in-place line tier and obs::fmt_u64 (eight-byte loads
# at segment edges, SWAR lanes, a 20-digit overflow that debug traps and
# release would wrap) and the front door's keyed hash: their oracles must
# hold with overflow checks off, the way they ship. The dev profile
# optimises rl, simnet and cluster (Cargo.toml) but keeps their debug
# assertions and overflow checks, so this step is still the only one that
# runs them the way the code ships. The goldens ledger computes the
# policy.* rows in a dev build (assertions and overflow checks on), while
# every served decision runs release code: policy_bits holds the
# controller to the policy's bits in the build that serves.
section release oracles
cargo test -q --release -p simnet -p rl -p topfull
cargo test -q --release --test policy_bits
cargo test -q --release -p liveserve -p cluster -p obs --lib -- wire:: front:: decimal::
section clippy
cargo clippy --workspace --all-targets -- -D warnings
section fmt
cargo fmt --check
# A deleted or renamed type leaves dangling [`links`] behind, and a
# public doc that links a private item links nothing a reader can open;
# rustdoc is what notices, over every library in the workspace.
section rustdoc links
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links -D rustdoc::private-intra-doc-links" \
  cargo doc --workspace --lib --no-deps -q

# The gated benchmark (benchmark/, its own cargo workspace) in its quick
# mode: <= 15 s, every correctness gate — byte-for-byte replies,
# end-of-phase counter conservation, `admitted - cache hits = 0`, the
# simulator's golden fingerprint, the replayed update vectors — and the
# output schema, no timing bounds. It is built unmodified against this
# checkout, so a change that breaks a public call the benchmark makes
# fails here, not in the driver.
# An unlocked build may rewrite the tracked benchmark/Cargo.lock; tier-1
# puts it back on exit, as scripts/profile.sh does, so a run leaves the
# tree as it found it.
section benchmark --quick
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'print_sections; cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick \
  > /tmp/topfull_benchmark_quick.json \
  || { echo "benchmark --quick: a gate failed"; cat /tmp/topfull_benchmark_quick.json; exit 1; }

# Live serving plane smoke: real TCP gateway + worker pool must serve a
# short open-loop burst end to end (wall-clock, ~4s) while the telemetry
# endpoint answers GET /metrics with valid Prometheus text exposition.
section live smokes
./target/release/topfull live scenarios/live_smoke.json --duration 4 --json \
  > /tmp/topfull_live_smoke.json &
live_pid=$!
scrape_metrics() {
  # std-only scrape: the endpoint closes the connection after one
  # response, so a read loop over /dev/tcp terminates by itself.
  exec 3<>/dev/tcp/127.0.0.1/19184
  printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
  cat <&3
  exec 3<&- 3>&-
}
sleep 2
m1=$(scrape_metrics)

# Concurrent-connections smoke: while the live run is still serving its
# open-loop load, hit the gateway (pinned to port 19186 in the scenario)
# with simultaneous clients — half pipelined, half sequential — and
# require a reply line for every request on every connection. This is
# the event-loop gateway's core claim: many sockets multiplexed without
# any one of them starving the others.
gateway_client() { # $1 = pipelined|sequential, $2 = id base
  local n=40 i replies=0
  exec 4<>/dev/tcp/127.0.0.1/19186
  if [ "$1" = pipelined ]; then
    { for ((i = 0; i < n; i++)); do printf 'REQ %s 0\n' "$(($2 + i))"; done; } >&4
    for ((i = 0; i < n; i++)); do
      IFS= read -r -t 5 _ <&4 && replies=$((replies + 1))
    done
  else
    for ((i = 0; i < n; i++)); do
      printf 'REQ %s 0\n' "$(($2 + i))" >&4
      IFS= read -r -t 5 _ <&4 && replies=$((replies + 1))
    done
  fi
  exec 4<&- 4>&-
  [ "$replies" -eq "$n" ]
}
client_pids=()
for c in 0 1 2 3; do gateway_client pipelined $((9000000 + c * 1000)) & client_pids+=($!); done
for c in 4 5 6 7; do gateway_client sequential $((9000000 + c * 1000)) & client_pids+=($!); done
for p in "${client_pids[@]}"; do
  wait "$p" || { echo "concurrent smoke: a client missed replies"; exit 1; }
done

# Coalescing smoke: a pipelined burst of duplicate keyed reads (same
# API, same key) must collapse onto one flight — every request still
# gets a reply, and /metrics shows nonzero coalesce hits afterwards.
coalesce_client() {
  local n=24 i replies=0
  exec 5<>/dev/tcp/127.0.0.1/19186
  { for ((i = 0; i < n; i++)); do printf 'REQ %s 0 7\n' $((9900000 + i)); done; } >&5
  for ((i = 0; i < n; i++)); do
    IFS= read -r -t 5 _ <&5 && replies=$((replies + 1))
  done
  exec 5<&- 5>&-
  [ "$replies" -eq "$n" ]
}
coalesce_client || { echo "coalesce smoke: duplicate-read burst missed replies"; exit 1; }

# Causal-tracing smoke: send keyless traced requests (4-token wire form
# `REQ <id> <api> - <trace>`) until one is admitted end to end; its
# trace must then be retrievable by id from the gateway's /trace route
# with the full stage chain (token bucket -> worker -> reply).
trace_client() {
  local i rid line
  exec 6<>/dev/tcp/127.0.0.1/19186
  for ((i = 0; i < 30; i++)); do
    rid=$((9990500 + i))
    printf 'REQ %s 0 - %s\n' "$rid" "$rid" >&6
    IFS= read -r -t 5 line <&6 || break
    case "$line" in OK*) echo "$rid"; exec 6<&- 6>&-; return 0 ;; esac
  done
  exec 6<&- 6>&-
  return 1
}
traced_id=$(trace_client) \
  || { echo "trace smoke: no hand-traced request was served"; exit 1; }
scrape_trace() {
  exec 3<>/dev/tcp/127.0.0.1/19184
  printf 'GET /trace/%s HTTP/1.1\r\nHost: localhost\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
tr=$(scrape_trace "$traced_id")
grep -q '"stage":"worker"' <<<"$tr" \
  || { echo "trace smoke: /trace/$traced_id missing the worker stage"; exit 1; }
grep -q '"stage":"reply"' <<<"$tr" \
  || { echo "trace smoke: /trace/$traced_id missing the reply stage"; exit 1; }

sleep 1
m2=$(scrape_metrics)
wait "$live_pid"
grep -q '^# TYPE topfull_request_duration_seconds histogram' <<<"$m1" \
  || { echo "metrics smoke: latency histogram missing"; exit 1; }
grep -q 'topfull_gateway_requests_total{api="ping",verdict="admitted"}' <<<"$m1" \
  || { echo "metrics smoke: per-API admit counter missing"; exit 1; }
grep -q 'topfull_gateway_requests_total{api="ping",verdict="rejected"}' <<<"$m1" \
  || { echo "metrics smoke: per-API reject counter missing"; exit 1; }
c1=$(grep -o 'verdict="admitted"} [0-9.]*' <<<"$m1" | awk '{print int($2)}')
c2=$(grep -o 'verdict="admitted"} [0-9.]*' <<<"$m2" | awk '{print int($2)}')
[ "$c2" -ge "$c1" ] && [ "$c2" -gt 0 ] \
  || { echo "metrics smoke: admit counter not monotone ($c1 -> $c2)"; exit 1; }
hits=$(grep -o 'topfull_coalesce_hit_total{[^}]*} [0-9.]*' <<<"$m2" \
  | awk '{s += int($2)} END {print s + 0}')
[ "$hits" -gt 0 ] \
  || { echo "coalesce smoke: no coalesce hits on /metrics after duplicate burst"; exit 1; }

# SLO observability smoke: the scrape must carry the per-API burn-rate
# gauges (the live analogue of the harness's SloMonitor) and at least
# one exemplar-bearing latency bucket — the loadgen traces every 64th
# request, and completions stamp their bucket with the trace id.
grep -q '^# TYPE topfull_slo_burn_rate gauge' <<<"$m2" \
  || { echo "slo smoke: burn-rate gauge missing from /metrics"; exit 1; }
grep -q '^# TYPE topfull_slo_budget_remaining gauge' <<<"$m2" \
  || { echo "slo smoke: budget gauge missing from /metrics"; exit 1; }
grep -q '# {trace_id="' <<<"$m2" \
  || { echo "slo smoke: no exemplar on any latency bucket"; exit 1; }
grep -q '^# TYPE topfull_loop_stage_seconds histogram' <<<"$m2" \
  || { echo "slo smoke: per-stage event-loop histograms missing"; exit 1; }

# Sharded live smoke: 3 real gateway shards under one logical
# controller, shard 1 SIGKILLed two seconds in by the document's
# `sharding.faults` (4 s of a 4 s document: no compression). The fleet
# must drain cleanly (exit 0), journal the strike-out, and redistribute
# the dead shard's quota to the survivors.
section sharded live smoke
./target/release/topfull live scenarios/live_shards_smoke.json \
  --duration 4 --json > /tmp/topfull_live_shards.json &
shards_pid=$!
scrape_shard_metrics() {
  exec 3<>/dev/tcp/127.0.0.1/19185
  printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
  cat <&3
  exec 3<&- 3>&-
}
sleep 1
sm=$(scrape_shard_metrics)
wait "$shards_pid" \
  || { echo "shard smoke: fleet did not drain cleanly after kill"; exit 1; }
grep -q 'shard="2"' <<<"$sm" \
  || { echo "shard smoke: fleet registry missing shard labels"; exit 1; }
grep -q 'struck out' /tmp/topfull_live_shards.json \
  || { echo "shard smoke: kill never journaled a strike-out"; exit 1; }
grep -Eq '"strike_outs": *1' /tmp/topfull_live_shards.json \
  || { echo "shard smoke: plane stats missing the strike-out"; exit 1; }

# The determinism ledger: every golden — the engine fingerprint, the
# policy bits, the decision journals (each at 1 and at 4 workers, and the
# matrix's 12 cells), benchmark/golden.json and every deterministic
# `figures` output — recomputed and compared with scripts/goldens.txt,
# every moved row listed. Its comparator proves itself first.
section goldens ledger
scripts/goldens.sh --self-test
scripts/goldens.sh --check
./target/release/topfull explain target/goldens/read_flash_crowd.w1.json | grep -q 'frontdoor' \
  || { echo "admission journal smoke: no front-door windows in read_flash_crowd's journal"; exit 1; }

section artifact smokes
# Decision-journal smoke: `topfull explain` must render a non-zero count
# of rate actions from gray_failure_chaos's run, which the ledger section
# above just regenerated and pinned.
./target/release/topfull explain target/goldens/gray_failure_chaos.w1.json \
  | grep -Eq 'rate actions: [1-9]' \
  || { echo "explain smoke: no rate actions in gray_failure_chaos's journal"; exit 1; }

# Trace + burn-journal smoke: `topfull trace` must render the
# checked-in live-run trace sample as a waterfall, and `topfull explain`
# must interleave the SloBurn escalations of slo_burn_lead's run, which
# the ledger section above just regenerated and pinned.
./target/release/topfull trace artifacts/traces/sample.jsonl \
  | grep -q 'worker' \
  || { echo "trace smoke: committed sample renders no worker stage"; exit 1; }
./target/release/topfull trace artifacts/traces/sample.jsonl --id 9990003 \
  | grep -q 'trace 9990003' \
  || { echo "trace smoke: --id filter lost the requested trace"; exit 1; }
./target/release/topfull explain target/goldens/slo_burn_lead.w1.json \
  | grep -q 'slo-burn' \
  || { echo "explain smoke: no slo-burn entries in slo_burn_lead's journal"; exit 1; }
./target/release/topfull explain target/goldens/slo_burn_lead.w1.json \
  | grep -q 'page escalation' \
  || { echo "explain smoke: slo_burn_lead's journal summary missing page escalations"; exit 1; }

# Scenario corpus dry-run: every committed document must validate
# without running — scenarios through the simulator's check mode,
# matrix specs cell by cell.
section scenario corpus
for f in scenarios/*.json scenarios/paper/*.json scenarios/found/*.json; do
  ./target/release/topfull check "$f" > /dev/null \
    || { echo "scenario check failed: $f"; exit 1; }
done
for f in scenarios/matrix/*.json; do
  ./target/release/topfull matrix "$f" --check > /dev/null \
    || { echo "matrix check failed: $f"; exit 1; }
done
# ...and the negative half: committed scenarios and a matrix, each with
# a single misspelt key, nested where the old hand-kept key tables never
# looked. Each must exit 1 and say which key was meant.
rejects_typo() { # $1 = document, $2 = the subcommand that checks it, $3... = its flags
  local doc=$1 cmd=$2 err
  shift 2
  if err=$(./target/release/topfull "$cmd" "$doc" "$@" 2>&1 > /dev/null); then
    echo "corpus dry-run: $doc has a misspelt key and was accepted"; exit 1
  fi
  grep -q 'did you mean' <<<"$err" \
    || { echo "corpus dry-run: $doc rejected without a hint: $err"; exit 1; }
}
rejects_typo scenarios/invalid/controller_typo.json check
rejects_typo scenarios/invalid/phase_typo.json check
rejects_typo scenarios/invalid/arm_typo.matrix.json matrix --check
# A numeric leaf `run` cannot hold is refused by key the same way: two
# APIs whose open-loop rates are each under the per-API bound but whose
# sum would need more than 4 GB of pending arrivals, and a ramp whose
# rate steps would.
rejects_key() { # $1 = document, $2 = the key its refusal must name
  local err
  if err=$(./target/release/topfull check "$1" 2>&1 > /dev/null); then
    echo "corpus dry-run: $1 was accepted"; exit 1
  fi
  grep -qF "$2" <<<"$err" \
    || { echo "corpus dry-run: $1 rejected without naming $2: $err"; exit 1; }
}
rejects_key scenarios/invalid/open_loop_total_rate.json workload.rates
rejects_key scenarios/invalid/phase_too_long.json 'workload.tracks[0].phases[0].duration_secs'

# Fuzz smoke: a fixed seed must be byte-for-byte reproducible, and the
# shipped controller must survive it with no objective tripped (the
# found-and-fixed corpus in scenarios/found/ is pinned by regression
# tests instead). Exit 3 would mean the fuzzer found a new weakness.
section fuzz smoke
rm -rf /tmp/topfull_fuzz_a /tmp/topfull_fuzz_b
./target/release/topfull fuzz --seed 1 --iters 12 --out /tmp/topfull_fuzz_a --json \
  > /tmp/topfull_fuzz_a.json \
  || { echo "fuzz smoke: fuzzer tripped an objective on the shipped controller"; exit 1; }
./target/release/topfull fuzz --seed 1 --iters 12 --out /tmp/topfull_fuzz_b --json \
  > /tmp/topfull_fuzz_b.json \
  || { echo "fuzz smoke: fuzzer tripped an objective on the shipped controller"; exit 1; }
cmp -s /tmp/topfull_fuzz_a.json /tmp/topfull_fuzz_b.json \
  || { echo "fuzz smoke: same seed produced different reports"; exit 1; }

echo "tier-1 verify: OK"
