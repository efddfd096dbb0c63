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
#   scripts/check.sh simdiff REF   # builds the 17 simulator programs (paper
#                              # harnesses, ablations, simulator examples)
#                              # from REF and from the working tree and fails
#                              # on any byte of stdout that differs; not part
#                              # of `all` (REF is any commit, e.g. HEAD~1)
#   scripts/check.sh reach     # report: which src/ lines and functions the
#                              # shipping programs (example and bench smokes,
#                              # simulator harnesses, perfbench --smoke) run,
#                              # and which only the tests run; --coverage -O0
#                              # tree in build-reach/, perfbench's in
#                              # build-reach-bench/; not part of `all`
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

sim_bench="fig7_clustering fig9_api_vs_broker fig10_qos_classes
  table1_completions tables234_drop_ratios ablation_cache ablation_connpool
  ablation_centralized ablation_balance ablation_prefetch ablation_txn
  ablation_fidelity"
sim_examples="quickstart movie_site travel_agency news_portal intranet_portal"

# sim_outputs SRC BUILD OUT: builds the simulator programs of source tree SRC
# in BUILD and writes each one's stdout to OUT/<program>.out.
sim_outputs() {
  cmake -B "$2" -S "$1" >/dev/null
  cmake --build "$2" -j "$jobs" --target $sim_bench $sim_examples >/dev/null
  mkdir -p "$3"
  for p in $sim_bench; do "$2/bench/$p" >"$3/$p.out"; done
  for p in $sim_examples; do "$2/examples/$p" >"$3/$p.out"; done
}

run_simdiff() {
  echo "== simdiff: simulator stdout at $1 vs the working tree"
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
  mkdir "$scratch/ref"
  git -C "$repo_root" archive "$1" | tar -x -C "$scratch/ref"
  sim_outputs "$scratch/ref" "$scratch/ref-build" "$scratch/ref-out"
  sim_outputs "$repo_root" "$repo_root/build" "$scratch/new-out"
  differ=0
  for p in $sim_bench $sim_examples; do
    if ! cmp -s "$scratch/ref-out/$p.out" "$scratch/new-out/$p.out"; then
      echo "simdiff: $p prints different output"
      diff "$scratch/ref-out/$p.out" "$scratch/new-out/$p.out" | head -20 || true
      differ=1
    fi
  done
  rm -rf "$scratch"
  trap - EXIT
  [ "$differ" -eq 0 ] || exit 1
  echo "simdiff: every simulator program prints the same bytes as $1"
}

run_reach() {
  echo "== reach: src/ lines and functions the shipping programs run"
  start=$(date +%s)
  tree="$repo_root/build-reach"
  bench="$repo_root/build-reach-bench"
  # Counts left by an earlier run would not match rebuilt objects.
  grep -qs -- "--coverage -O0" "$bench/perfbench/CMakeCache.txt" || rm -rf "$bench"
  find "$tree" "$bench" -name '*.gcda' -delete 2>/dev/null || true
  cmake -B "$tree" -S "$repo_root" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" >/dev/null
  cmake --build "$tree" -j "$jobs" >/dev/null
  # gtest_discover_tests runs every test binary during the build: drop those
  # counts so only the programs below count.
  find "$tree" -name '*.gcda' -delete
  failed=""
  ctest --test-dir "$tree" -R 'bench_|example_' -j "$jobs" >/dev/null ||
    failed="$failed smokes"
  for p in $sim_bench; do "$tree/bench/$p" >/dev/null || failed="$failed $p"; done
  # perfbench is the only program that runs some broker paths (refresh,
  # metrics merge, ShardedBrokerDaemon::dispatch_accepted); it builds
  # unmodified into its own tree.
  (cd "$repo_root" && CARGO_TARGET_DIR="$bench" CXXFLAGS="--coverage -O0" \
    python3 perfbench/run.py --smoke >/dev/null 2>&1) || failed="$failed perfbench"
  python3 "$repo_root/scripts/reach.py" collect "$tree/reach-shipped.json" "$tree" "$bench"
  ctest --test-dir "$tree" -E 'bench_|example_' -j "$jobs" >/dev/null ||
    failed="$failed tests"
  python3 "$repo_root/scripts/reach.py" collect "$tree/reach-all.json" "$tree"
  python3 "$repo_root/scripts/reach.py" report "$tree/reach-shipped.json" "$tree/reach-all.json"
  [ -z "$failed" ] || echo "reach: these runs failed (their counts are partial):$failed"
  echo "reach: $(( $(date +%s) - start )) s"
}

[ $# -gt 0 ] || set -- all
while [ $# -gt 0 ]; do
  what=$1
  shift
  case "$what" in
    plain) run_plain ;;
    tsan) run_tsan ;;
    asan) run_asan ;;
    ubsan) run_ubsan ;;
    release) run_release ;;
    perfbench) run_perfbench ;;
    simdiff)
      [ $# -gt 0 ] || { echo "usage: scripts/check.sh simdiff REF" >&2; exit 2; }
      run_simdiff "$1"
      shift
      ;;
    reach) run_reach ;;
    all) run_plain; run_tsan; run_asan; run_ubsan; run_release; run_perfbench ;;
    *) echo "usage: scripts/check.sh [plain|tsan|asan|ubsan|release|perfbench|simdiff REF|reach|all]..." >&2; exit 2 ;;
  esac
done

echo "== check.sh: all requested suites passed"
