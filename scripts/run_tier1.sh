#!/usr/bin/env bash
# Tier-1 verification, three configurations:
#
#   plain   the required suite (ctest label tier1) in the default build
#   faults  the same kernel-path suites re-run with USK_FAIL_SPEC armed
#           (label `faults`: seeded p=0.01 transient injection at kmalloc,
#           the disk, and the network -- must pass with zero failures),
#           then bench_fault_storm --quick (R1), which fails when a
#           disarmed fault point costs over 0.5% of a null syscall
#   sup     the supervisor-facing suites re-run with USK_SUP_SPEC armed
#           (label `sup`: aggressive breaker policy + transient faults on
#           the supervised paths, forcing probation/quarantine/re-admission
#           cycles under every test's assertions), then bench_supervisor
#           (R2) in full: only the full storm reaches its quarantine and
#           re-admission checks
#   ring    the ring suites re-run with the aggressive breaker AND seeded
#           transient injection at the ring fault sites (label `ring`),
#           then bench_ring --quick with its JSON gated by the crossing
#           thresholds (<= 0.5 crossings/req at batch 8, >= 4x vs plain,
#           both on the --quick run's 2 workers)
#   obs     the request-path suites re-run span-enabled (label `obs`:
#           USK_SPAN=1 arms every SpanScope for real under the existing
#           assertions), then bench_obs --quick and bench_trace_overhead
#           with their JSON gated by the overhead budgets (disabled span
#           site and disabled tracepoints each <= 1% of a null syscall,
#           span-enabled webserver slowdown <= 1.05x)
#   storage the persistent-tier suites (store, journalfs, blockdev) with
#           transient injection at the storage fault sites plus the crash
#           oracle sweep (label `storage`), then bench_storage --quick
#           gated by the group-commit amortization (>= 3 txns/flush at 8
#           writers); its PostMark store-vs-memory slowdown is recorded
#           unbounded. bench_kgcc (E7) runs the journal under the checked
#           pointer policy and aborts on any bounds error, so it is a gate
#           too
#   dl      the request-path suites re-run with kdl armed end to end
#           (label `dl`: USK_DL=1 plus seeded transient clock skew and
#           spurious park wakeups at the dl fault sites), then
#           bench_overload --quick with its JSON gated by the R3 budgets:
#           goodput >= 70% of capacity at 2x offered load, admitted p99
#           <= 5x the uncontended p99, shed accuracy >= 70%, the
#           unprotected baseline degraded, >= 1000 cancels with ZERO
#           leaked fds/sockets, and the disarmed gateway check <= 1% of
#           a null syscall
#   sched   the scheduler-dependent suites (everything blocking through
#           the WaitQueue park/wake path) re-run with transient injection
#           at the sites feeding those paths (label `sched`), then
#           bench_smp_scaling --quick gated by the PR-9 budgets: >= 6x
#           syscall throughput at 8 vCPUs (sharded+percpu vs the paper's
#           single-lock kernel), work stealing live (>= 1 steal), the
#           watchdog still killing a runaway task, and ZERO park timeouts
#           (all wakeups event-driven; no interval re-polling anywhere)
#   asan    the fault and storage soaks again under AddressSanitizer,
#           proving the injected error paths free everything they unwind
#           past, that no /proc renderer outlives its owner (test_proc)
#           and that group commit never reads a committer's records or
#           result slot after it returned (test_store, crash oracle)
#   ubsan   the fault + sup soaks and the required suite under
#           UndefinedBehaviorSanitizer (halt_on_error: any UB report is a
#           red run)
#   tsan    the SMP, supervisor and kdl suites under ThreadSanitizer
#           (subscribers join and leave a Kernel while other threads
#           dispatch; cancels race parks in the kdl cancellation storm),
#           plus the background flusher, which checks the fault injector
#           its starting thread bound, and the multi-threaded epoll echo
#           server (StressEpollEchoServerMt), whose sockets and epoll
#           instance live in the fd-object tables
#   release the required suite in an optimised (-O3) build with the default
#           USK_WERROR=ON: the Release build must be warning-free too
#   repeat  the whole suite in the default build, 20 consecutive parallel
#           runs (ctest --repeat until-fail:20): a flaky test is a red run
#
# Usage: scripts/run_tier1.sh [plain|faults|sup|ring|obs|storage|sched|
#                              dl|asan|ubsan|tsan|release|repeat|all]
#                              (default: all)
#
# Build trees: build/ (plain + faults + sup + ring + obs + storage +
# sched + dl + repeat), build-asan/, build-ubsan/, build-tsan/,
# build-release/. `all` runs
# plain+faults+sup+ring+obs+storage+sched+dl+asan+ubsan+tsan+release,
# matching the checked-in acceptance gates; `repeat` is run on its own.
# Fails fast: the first red suite stops the script with a nonzero exit.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

build() {  # build <dir> [extra cmake args...]
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
}

run_plain()  { build build; (cd build && ctest -L tier1 -LE faults -j "$jobs" --output-on-failure); }
run_faults() { build build; (cd build && ctest -L faults -j "$jobs" --output-on-failure);
               ./build/bench/bench_fault_storm --quick; }
run_sup()    { build build; (cd build && ctest -L sup -j "$jobs" --output-on-failure);
               ./build/bench/bench_supervisor; }
run_ring()   { build build; (cd build && ctest -L ring -j "$jobs" --output-on-failure);
               local json; json="$(mktemp)"
               USK_BENCH_JSON="$json" ./build/bench/bench_ring --quick
               python3 scripts/check_bench_json.py \
                 --expect bench_ring \
                 --expect-max 'bench_ring:crossings-ring-b8-2w:0.5' \
                 --expect-min 'bench_ring:crossing-ratio-plain-over-ring-2w:4.0' \
                 "$json"
               rm -f "$json"; }
run_obs()    { build build; (cd build && ctest -L obs -j "$jobs" --output-on-failure);
               local json; json="$(mktemp)"
               USK_BENCH_JSON="$json" ./build/bench/bench_obs --quick
               USK_BENCH_JSON="$json" ./build/bench/bench_trace_overhead
               python3 scripts/check_bench_json.py \
                 --expect bench_obs \
                 --expect-max 'bench_obs:span-disabled-overhead-pct:1.0' \
                 --expect-max 'bench_obs:span-enabled-webserver-slowdown-pct:105' \
                 --expect bench_trace_overhead \
                 --expect-max 'bench_trace_overhead:disabled-overhead-pct:1.0' \
                 "$json"
               rm -f "$json"; }
run_storage(){ build build; (cd build && ctest -L storage -j "$jobs" --output-on-failure);
               local json; json="$(mktemp)"
               USK_BENCH_JSON="$json" ./build/bench/bench_storage --quick
               USK_BENCH_JSON="$json" ./build/bench/bench_kgcc
               python3 scripts/check_bench_json.py \
                 --expect bench_storage \
                 --expect-min 'bench_storage:commits-per-flush-8w:3.0' \
                 --expect bench_kgcc \
                 "$json"
               rm -f "$json"; }
run_sched()  { build build; (cd build && ctest -L sched -j "$jobs" --output-on-failure);
               local json; json="$(mktemp)"
               USK_BENCH_JSON="$json" ./build/bench/bench_smp_scaling --quick
               python3 scripts/check_bench_json.py \
                 --expect bench_smp_scaling \
                 --expect-min 'bench_smp_scaling:smp-speedup-8t:6.0' \
                 --expect-min 'bench_smp_scaling:rq-steals-8t:1' \
                 --expect-min 'bench_smp_scaling:watchdog-kills-runaway:1' \
                 --expect-max 'bench_smp_scaling:park-timeout-wakeups:0' \
                 "$json"
               rm -f "$json"; }
run_dl()     { build build; (cd build && ctest -L dl -j "$jobs" --output-on-failure);
               local json; json="$(mktemp)"
               USK_BENCH_JSON="$json" ./build/bench/bench_overload --quick
               python3 scripts/check_bench_json.py \
                 --expect bench_overload \
                 --expect-max 'bench_overload:dl-disarmed-overhead-pct:1.0' \
                 --expect-min 'bench_overload:overload-goodput-pct:70' \
                 --expect-max 'bench_overload:overload-admitted-p99-ratio:5.0' \
                 --expect-min 'bench_overload:overload-shed-accuracy-pct:70' \
                 --expect-min 'bench_overload:overload-baseline-degraded:1' \
                 --expect-min 'bench_overload:overload-cancels:1000' \
                 --expect-max 'bench_overload:overload-cancel-leaks:0' \
                 "$json"
               rm -f "$json"; }
run_asan()   { build build-asan -DUSK_SANITIZE=address;
               (cd build-asan && ctest -L 'faults|storage' -j "$jobs" --output-on-failure); }
run_ubsan()  { build build-ubsan -DUSK_SANITIZE=undefined;
               (cd build-ubsan &&
                UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
                  ctest -L 'faults|sup|tier1' -j "$jobs" --output-on-failure); }
run_tsan()   { build build-tsan -DUSK_SANITIZE=thread;
               (cd build-tsan && ctest -R 'Smp|SupTest|DlTest|BackgroundFlusher|StressEpollEchoServerMt' -j "$jobs" --output-on-failure); }
run_release(){ build build-release -DCMAKE_BUILD_TYPE=Release;
               (cd build-release && ctest -L tier1 -j "$jobs" --output-on-failure); }
run_repeat() { build build;
               (cd build && ctest -j "$jobs" --repeat until-fail:20 --output-on-failure); }

case "$mode" in
  plain)  run_plain ;;
  faults) run_faults ;;
  sup)    run_sup ;;
  ring)   run_ring ;;
  obs)    run_obs ;;
  storage) run_storage ;;
  sched)  run_sched ;;
  dl)     run_dl ;;
  asan)   run_asan ;;
  ubsan)  run_ubsan ;;
  tsan)   run_tsan ;;
  release) run_release ;;
  repeat) run_repeat ;;
  all)    run_plain; run_faults; run_sup; run_ring; run_obs; run_storage; run_sched; run_dl; run_asan; run_ubsan; run_tsan; run_release ;;
  *) echo "usage: $0 [plain|faults|sup|ring|obs|storage|sched|dl|asan|ubsan|tsan|release|repeat|all]" >&2; exit 2 ;;
esac
echo "run_tier1: $mode OK"
