#!/bin/sh
# Full local verification gate: plain build (warnings are errors) + full
# ctest, then TSan, ASan and UBSan builds of the concurrency-heavy suites, an
# optimised Release build (warnings are errors) + full ctest, then the
# benchmark's smoke run. core_test carries the
# single-flight/SWR/FlightTable suites and net_test the daemon-level stampede
# suites, so all three sanitizers cover the miss-coalescing paths. Run from
# anywhere; trees live at the repo root (build/, build-tsan/, build-asan/,
# build-ubsan/, build-release/) and are reused across runs.
#
#   scripts/check.sh           # everything
#   scripts/check.sh plain     # just the plain -Werror build + full ctest
#   scripts/check.sh tsan      # just the TSan core/net suites
#   scripts/check.sh asan      # just the ASan core/net/integration/http/wl/obs suites
#   scripts/check.sh ubsan     # just the UBSan core/net/obs/http/wl suites
#   scripts/check.sh release   # Release (-O3, NDEBUG) -Werror build + full
#                              # ctest: deeper inlining and compiled-out
#                              # asserts surface warnings the default tree hides
#   scripts/check.sh perfbench # every benchmark workload, both modes, with
#                              # its output checks (perfbench/run.py --smoke)
#   scripts/check.sh asan ubsan  # several suites, run in the order given
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

run_plain() {
  echo "== plain build (-Werror) + full ctest"
  cmake -B "$repo_root/build" -S "$repo_root" -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "$repo_root/build" -j "$jobs"
  ctest --test-dir "$repo_root/build" --output-on-failure -j "$jobs"
}

run_tsan() {
  echo "== TSan build (core_test, net_test, fed_test, overload + federation smokes)"
  cmake -B "$repo_root/build-tsan" -S "$repo_root" -DSBROKER_SANITIZE=thread
  cmake --build "$repo_root/build-tsan" -j "$jobs" \
    --target core_test net_test fed_test daemon_loadgen federation_demo
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/tests/core_test"
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/tests/net_test"
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/tests/fed_test"
  # Flash-crowd overload smoke under TSan: the LIFO flip, AIMD feedback and
  # per-class shed counters all run on live shard reactors here (the plain
  # tree runs the same command via ctest bench_daemon_overload_smoke).
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/bench/daemon_loadgen" \
    shards=1 pipeline=1 clients=6 seconds=2.4 ramp=0.4 crowd=10 keys=64 \
    cache=0 timeout=150 svc=10 replicas=1 window=2 threshold=150 backoff=20 \
    oeval=0.1 overload=static,aimd,aimd+lifo check=1 out=
  # Open-loop smoke under TSan: the arrival-schedule sender threads, the
  # netem relay reactor and the shard reactors all run instrumented; check=1
  # gates sent == scheduled (no coordinated omission) and corrected p99 >=
  # uncorrected p99 (the plain tree runs the same commands via ctest
  # bench_daemon_openloop_smoke / bench_daemon_link_smoke).
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/bench/daemon_loadgen" \
    shards=1 pipeline=1 clients=8 seconds=0.6 keys=64 cache=0 \
    arrivals=poisson rate=800 seed=7 link=custom:2:2:0 check=1 out=
  # Federation smokes under TSan: every forked member daemon (peer channels,
  # gossip timers, admin scrapes) runs instrumented; the conservation and
  # kill-failover gates are the same ones ctest runs in the plain tree.
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/examples/federation_demo" \
    peers=3 clients=6 requests=1920 keys=64 check=1 out=
  TSAN_OPTIONS="halt_on_error=0" "$repo_root/build-tsan/examples/federation_demo" \
    peers=3 clients=6 requests=1200 keys=64 kill=1 deadline=1500 out=
}

run_asan() {
  echo "== ASan build (core_test, net_test, fed_test, integration_test, http_test, wl_test, obs_test)"
  cmake -B "$repo_root/build-asan" -S "$repo_root" -DSBROKER_SANITIZE=address
  cmake --build "$repo_root/build-asan" -j "$jobs" \
    --target core_test net_test fed_test integration_test http_test wl_test obs_test
  # No leak suppressions: reactors break TcpConn<->owner cycles at teardown
  # (Reactor::set_teardown / defer_destroy), so exit-time leaks fail for real.
  "$repo_root/build-asan/tests/core_test"
  "$repo_root/build-asan/tests/net_test"
  "$repo_root/build-asan/tests/fed_test"
  "$repo_root/build-asan/tests/integration_test"
  "$repo_root/build-asan/tests/http_test"
  "$repo_root/build-asan/tests/wl_test"
  "$repo_root/build-asan/tests/obs_test"
}

run_ubsan() {
  echo "== UBSan build (core_test, net_test, fed_test, obs_test, http_test, wl_test)"
  cmake -B "$repo_root/build-ubsan" -S "$repo_root" -DSBROKER_SANITIZE=undefined
  cmake --build "$repo_root/build-ubsan" -j "$jobs" \
    --target core_test net_test fed_test obs_test http_test wl_test
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/core_test"
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/net_test"
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/fed_test"
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/obs_test"
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/http_test"
  UBSAN_OPTIONS="halt_on_error=1,print_stacktrace=1" \
    "$repo_root/build-ubsan/tests/wl_test"
}

run_release() {
  echo "== Release build (-Werror) + full ctest"
  cmake -B "$repo_root/build-release" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "$repo_root/build-release" -j "$jobs"
  ctest --test-dir "$repo_root/build-release" --output-on-failure -j "$jobs"
}

run_perfbench() {
  echo "== perfbench smoke (every workload, end-to-end and traced)"
  (cd "$repo_root" && python3 perfbench/run.py --smoke)
}

[ $# -gt 0 ] || set -- all
for what in "$@"; do
  case "$what" in
    plain) run_plain ;;
    tsan) run_tsan ;;
    asan) run_asan ;;
    ubsan) run_ubsan ;;
    release) run_release ;;
    perfbench) run_perfbench ;;
    all) run_plain; run_tsan; run_asan; run_ubsan; run_release; run_perfbench ;;
    *) echo "usage: scripts/check.sh [plain|tsan|asan|ubsan|release|perfbench|all]..." >&2; exit 2 ;;
  esac
done

echo "== check.sh: all requested suites passed"
