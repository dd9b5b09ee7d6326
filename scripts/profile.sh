#!/usr/bin/env bash
# Where one gated benchmark workload spends its CPU time, symbol by
# symbol — for hosts with no perf/gdb/valgrind. An LD_PRELOAD sampler
# (built here with `cc`, into /tmp) takes the interrupted program counter
# on every SIGPROF tick of a 1 kHz CPU-time timer and dumps them at exit;
# `nm -n` over the benchmark binary turns them into symbols, and a pc
# outside the binary is resolved by the sampler itself with `dladdr`
# into a `library:symbol` row (`?` where the library exports no symbol
# there: libc's allocator internals, say). Flat profile only (no
# stacks): a symbol's share is its *self* time plus whatever the
# compiler inlined into it.
#
# The handler also records which thread it interrupted (its name, by
# `prctl(PR_GET_NAME)`: a plain syscall), and the report is one table
# per thread under a table of thread totals. On the live workloads
# that is what tells the server's `send`/`recv` (`live-loop-0`) from the
# generator's, and the harness's own reference sort (both on the main
# thread, named after the binary) from the program under test.
#
# Read a caller's and its callee's shares together. A sample lands on
# the instruction that is *retiring*, so a caller's long dependency
# chain can finish inside the callee and be billed to it: on
# control.alibaba libm's `tanh` read 26 % while the serial sums feeding
# it read 20 %, and unchaining the sums cut libm's samples per tick
# 2.5× without removing one `tanh` call.
#
#   scripts/profile.sh <workload> [seed] [seconds]    # e.g. sim.boutique 41 10
#   scripts/profile.sh --lines <workload> [seed] [seconds]
#
# Builds benchmark/ the way BENCHMARK.json does and edits nothing: a
# build may rewrite the tracked benchmark/Cargo.lock, so the lock is
# copied aside first and put back on exit, in both modes, the way
# verify.sh does it. To profile another commit, run
# that checkout's copy of this script (or copy this one into it).
# Not part of verify.sh.
#
# `--lines` answers the question the symbol table cannot: *which line*
# of a 300-line handler the compiler inlined six callees into. It builds
# benchmark/ a second time with line tables (`debug = line-tables-only`,
# same optimisation) into target/profile-lines — benchmark/target keeps
# the binary the gates time — resolves every sampled pc with `addr2line -i` into its chain of
# inlined frames, and bills the sample to the innermost frame whose
# source is under this repository: a `VecDeque::push_back` or
# `Iterator::fold` from the standard library is charged to the line of
# ours that called it. Prints the top files, then the top `file:line`
# rows with the function each is in; all threads together. A pc with no
# frame of ours is a row of its own: the function it is in when the
# binary's line tables know one (an out-of-line `fold`, the harness's
# `quicksort`), else the sampler's `library:symbol` (libm, libc).
set -euo pipefail
cd "$(dirname "$0")/.."
lines=
if [ "${1:-}" = --lines ]; then
  lines=1
  shift
fi
workload=${1:?usage: scripts/profile.sh [--lines] <workload> [seed] [seconds]}
seed=${2:-41}
seconds=${3:-10}
tmp=$(mktemp -d /tmp/topfull_profile.XXXXXX)
cp benchmark/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT

cat > "$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1ul << 22)
static unsigned long *pcs, taken;
static char (*threads)[16]; /* PR_GET_NAME fills at most 16 bytes */

static void on_tick(int sig, siginfo_t *info, void *ctx) {
  ucontext_t *uc = ctx;
  unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  int interrupted_errno = errno;
  (void)sig, (void)info;
  if (i >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  pcs[i] = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pcs[i] = uc->uc_mcontext.pc;
#else
#error "teach the sampler where this architecture keeps the interrupted pc"
#endif
  prctl(PR_GET_NAME, threads[i]);
  errno = interrupted_errno;
}

/* The first object dl_iterate_phdr reports is the executable; its
 * dlpi_addr is the load bias `nm` addresses are relative to. */
static int exe_bias(struct dl_phdr_info *info, size_t size, void *out) {
  (void)size;
  *(unsigned long *)out = info->dlpi_addr;
  return 1;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  struct itimerval tick = {{0, 1000}, {0, 1000}};
  pcs = calloc(MAX_SAMPLES, sizeof *pcs);
  threads = calloc(MAX_SAMPLES, sizeof *threads);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  unsigned long bias = 0, i, n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  FILE *out = fopen(getenv("TOPFULL_PROFILE_OUT"), "w");
  setitimer(ITIMER_PROF, &off, NULL);
  if (!out) return;
  dl_iterate_phdr(exe_bias, &bias);
  /* One line per sample: the pc as `nm` would number it, the thread it
   * interrupted (one word), then where the dynamic linker says the pc
   * is, for the pcs `nm` cannot place. */
  for (i = 0; i < n; i++) {
    Dl_info at = {0};
    const char *lib = "?", *slash;
    char *c;
    if (dladdr((void *)pcs[i], &at) && at.dli_fname)
      lib = (slash = strrchr(at.dli_fname, '/')) ? slash + 1 : at.dli_fname;
    threads[i][15] = 0;
    for (c = threads[i]; *c; c++)
      if (*c == ' ') *c = '_';
    fprintf(out, "%lx %s %s:%s\n", pcs[i] - bias, threads[i][0] ? threads[i] : "?", lib,
            at.dli_sname ? at.dli_sname : "?");
  }
  fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c" -ldl

if [ -n "$lines" ]; then
  CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir target/profile-lines
  bin=target/profile-lines/release/topfull-benchmark
else
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
  bin=benchmark/target/release/topfull-benchmark
fi
TOPFULL_PROFILE_OUT="$tmp/pcs" LD_PRELOAD="$tmp/sampler.so" \
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  | tail -n 1 > "$tmp/result.json"

total=$(wc -l < "$tmp/pcs")
share() { # stdin: samples <tab> label
  awk -F'\t' -v total="$total" '{ printf "%6.2f %%  %7d  %s\n", 100 * $1 / total, $1, $2 }'
}
footer() {
  echo "($total samples of CPU time — a 1 kHz timer at the kernel's tick resolution;" \
    "$workload seed $seed, $seconds s)"
  cat "$tmp/result.json"
}

if [ -n "$lines" ]; then
  # Per distinct pc: `0x<pc>`, then (function, file:line) pairs from the
  # innermost inlined frame outwards.
  cut -d' ' -f1 "$tmp/pcs" | sort -u | sed 's/^/0x/' \
    | addr2line -a -i -f -C -e "$bin" > "$tmp/frames"
  # Rows `F <tab> samples <tab> file` and `L <tab> samples <tab> file:line  function`.
  awk -v root="$PWD/" '
    FNR == NR { hits[$1]++; outside[$1] = $3; next }
    /^0x[0-9a-f]+$/ { pc = $0; sub(/^0x0*/, "", pc); function_next = 1; next }
    function_next { fn = $0; sub(/::h[0-9a-f]{16}$/, "", fn); function_next = 0; next }
    { function_next = 1
      if (fn != "??") outermost[pc] = fn
      if (!(pc in line) && index($0, root) == 1) {
        line[pc] = substr($0, length(root) + 1); sub(/ \(discriminator [0-9]+\)$/, "", line[pc])
        inside[pc] = fn } }
    END { for (pc in hits) {
        if (pc in line) { file = line[pc]; sub(/:[0-9?]+$/, "", file); row = line[pc] "  " inside[pc] }
        else if (pc in outermost) { file = "(not ours, in the binary)"; row = outermost[pc] }
        else file = row = outside[pc]
        files[file] += hits[pc]; rows[row] += hits[pc] }
      for (f in files) printf "F\t%d\t%s\n", files[f], f
      for (r in rows) printf "L\t%d\t%s\n", rows[r], r }
  ' "$tmp/pcs" "$tmp/frames" > "$tmp/rows"
  echo "files (share of all $total samples, billed to the innermost frame under $PWD):"
  grep '^F' "$tmp/rows" | cut -f2- | sort -rn | awk 'NR <= 15' | share
  echo
  echo "lines:"
  grep '^L' "$tmp/rows" | cut -f2- | sort -rn | awk 'NR <= 40' | share
  footer
  exit
fi

# Text symbols in address order, the per-instantiation `::h<hash>` suffix
# dropped so a generic function's copies add up; a pc outside the
# binary's symbols (libc, libm, vdso) keeps the sampler's own
# `library:symbol`.
nm -n -C --defined-only "$bin" \
  | awk '$2 ~ /^[tTwW]$/ { addr = $1; $1 = $2 = ""; sub(/^ +/, ""); sub(/::h[0-9a-f]{16}$/, "")
                           print addr, $0 }' > "$tmp/symbols"
last=$(nm -n --defined-only "$bin" | tail -n 1 | cut -d' ' -f1)
# One row per (thread, symbol): thread, samples, symbol, tab-separated.
awk -v last="$last" '
  function hex(s,    i, v) { v = 0; s = tolower(s)
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v }
  FNR == NR { at[++n] = hex($1); $1 = ""; sub(/^ /, ""); name[n] = $0; next }
  { pc = hex($1); thread = $2
    if (n == 0 || pc < at[1] || pc >= hex(last)) { hits[thread "\t" $3]++; next }
    lo = 1; hi = n
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (at[mid] <= pc) lo = mid; else hi = mid - 1 }
    hits[thread "\t" name[lo]]++ }
  END { for (row in hits) { split(row, k, "\t"); printf "%s\t%d\t%s\n", k[1], hits[row], k[2] } }
' "$tmp/symbols" "$tmp/pcs" > "$tmp/rows"
echo "threads (share of all $total samples):"
awk -F'\t' '{ t[$1] += $2 } END { for (k in t) printf "%d\t%s\n", t[k], k }' "$tmp/rows" \
  | sort -rn | tee "$tmp/threads" | share
# A table per thread, busiest first; every share is of all samples, so
# rows add up to the thread's line above and compare across threads.
while IFS=$'\t' read -r samples thread; do
  echo
  echo "$thread ($samples samples):"
  awk -F'\t' -v thread="$thread" '$1 == thread { printf "%d\t%s\n", $2, $3 }' "$tmp/rows" \
    | sort -rn | awk 'NR <= 20' | share
done < "$tmp/threads"
footer
