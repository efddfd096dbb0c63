#!/bin/sh
# Perf trajectory runner: regenerates BENCH_core.json (micro benches) and
# BENCH_daemon.json (real-socket sharded daemon loadgen) at the repo root so
# every PR can be compared against its predecessors.
#
#   bench/run_bench.sh [build-dir]           # default build dir: ./build
#
# Time an optimised tree (a Release build-dir): micro_core runs each
# benchmark 5 times, and BENCH_core.json keeps every repetition (min and
# max) beside the mean/median/stddev/cv aggregates.
#
# Environment knobs for the loadgen sweep:
#   BENCH_SHARDS   comma list of shard counts   (default 1,2,4)
#   BENCH_PIPELINE backend channel modes        (default 0,1)
#   BENCH_CLIENTS  concurrent connections       (default 64)
#   BENCH_SECONDS  seconds per run              (default 2)
#   BENCH_KEYS     distinct request targets     (default 512)
#   BENCH_CACHE    result cache on/off          (default 1; paired with the
#                  50ms BENCH_TTL below most requests still exercise the
#                  broker->backend channel, while the dup sweep can show the
#                  anti-stampede layer collapsing hot-key miss storms.
#                  Set BENCH_CACHE=0 BENCH_DUP=0 for the pure channel sweep.)
#   BENCH_TIMEOUT_MS per-request deadline in ms (default 0 = no deadline)
#   BENCH_STALLPCT  percent of keys routed to a never-replying backend
#                  (default 0; requires BENCH_TIMEOUT_MS > 0)
#   BENCH_ATTEMPTS  per-request attempt budget  (default 1 = no retries)
#   BENCH_DUP      comma list of hot-key duplicate fractions swept per
#                  shard/channel combination; dup=0.8 routes 80% of requests
#                  to one key so its misses collide and the single-flight
#                  layer must collapse them     (default "0,0.8")
#   BENCH_TTL      result-cache TTL seconds     (default 0.05, so the hot
#                  key re-expires ~40x per 2s window and every expiry is a
#                  potential stampede)
#   BENCH_GRACE    stale-while-revalidate grace window seconds (default 0.025)
#   BENCH_JITTER   fractional per-key TTL jitter (default 0.1)
#   BENCH_NEGTTL   negative-cache TTL seconds   (default 0 = off; no backend
#                  errors in this harness anyway)
#   BENCH_COALESCE single-flight miss coalescing on/off (default 1; 0 is the
#                  A/B ablation arm for the stampede experiment)
#   BENCH_OBS      broker flight recorder on/off (default 1; 0 measures the
#                  compiled-in-but-idle overhead baseline; latency
#                  histograms always record)
#   BENCH_SCRAPE   scrape the admin plane (/metrics mid-run, /statusz after
#                  each run) so broker-side p50/p95/p99 per QoS class land
#                  in BENCH_daemon.json next to the client-side numbers
#                  (default 1)
#   BENCH_BURST    frames pipelined per send      (default 1)
#
# Replica-selection sweep knobs (the second loadgen invocation below; its
# runs land in BENCH_daemon.json under "policy_runs"):
#   BENCH_POLICY   comma list of balancer policies    (default
#                  "round-robin,least-outstanding,ewma,p2c")
#   BENCH_REPLICAS backend replicas in the fake pool  (default 3)
#   BENCH_SVC      per-request service time, ms       (default 2)
#   BENCH_SKEW     comma list of slow-replica service-time multipliers; the
#                  last replica serves svc*skew ms    (default "1,6")
#   BENCH_DEGRADE  seconds into each run before the skew kicks in (default 0)
#   BENCH_POLICY_SWEEP set to 0 to skip the policy sweep entirely
#
# Flash-crowd overload sweep knobs (the third loadgen invocation below; its
# runs land in BENCH_daemon.json under "overload"): one serial replica at
# BENCH_OVERLOAD_SVC ms per request, clients stepping x BENCH_CROWD at
# t=BENCH_RAMP, per-phase goodput/drop/p99 per overload-control spec.
#   BENCH_OVERLOAD       comma list of specs  (default "static,aimd,aimd+lifo")
#   BENCH_CROWD          flash-crowd client multiplier      (default 10)
#   BENCH_RAMP           seconds before the crowd joins     (default 0.4)
#   BENCH_OVERLOAD_SECONDS  window per overload run         (default 2.4)
#   BENCH_OVERLOAD_CLIENTS  pre-crowd client count          (default 6)
#   BENCH_OVERLOAD_SVC   service time ms at the one replica (default 10)
#   BENCH_OVERLOAD_TIMEOUT_MS  client deadline              (default 150)
#   BENCH_OVERLOAD_THRESHOLD   (mistuned) static threshold  (default 150)
#   BENCH_WINDOW         broker dispatch window             (default 2)
#   BENCH_BACKOFF        client sleep after a busy reply, ms (default 20)
#   BENCH_OEVAL          controller feedback interval, s    (default 0.1)
#   BENCH_OVERLOAD_SWEEP set to 0 to skip the overload sweep entirely
#
# Open-loop arrivals sweep knobs (the fourth loadgen invocation below; its
# runs land in BENCH_daemon.json under "arrivals"): closed-loop baseline vs
# open-loop schedules at the same offered rate, coordinated-omission-corrected
# latency next to the biased from-actual-send view, optionally through the
# userspace link-degradation proxy.
#   BENCH_ARRIVALS       comma list of shapes (default "closed,poisson,bursty")
#   BENCH_RATE           open-loop offered rate, req/s     (default 500)
#   BENCH_ARRIVAL_SEED   schedule seed                     (default 42)
#   BENCH_DUTY           bursty on-fraction per period     (default 0.3)
#   BENCH_PERIOD         bursty/diurnal cycle length, s    (default 1)
#   BENCH_FLOOR          diurnal trough fraction of peak   (default 0.2)
#   BENCH_LINK           link shaping: none|wan|cell|custom:<lat_ms>:<jit_ms>:<kbps>
#                                                          (default none)
#   BENCH_ARRIVALS_CLIENTS  sender connections             (default 16)
#   BENCH_ARRIVALS_SWEEP set to 0 to skip the arrivals sweep entirely
#
# Federation sweep knobs (the federation_demo invocation below; its runs —
# a single-node baseline followed by a BENCH_PEERS-member tier over the
# identical workload — land in BENCH_daemon.json under "federation"):
#   BENCH_PEERS          federation members (processes)     (default 3)
#   BENCH_FED_CLIENTS    closed-loop client threads         (default 6)
#   BENCH_FED_REQUESTS   total requests per phase           (default 1920)
#   BENCH_FED_KEYS       distinct keys (requests/keys = repetition)
#                                                           (default 64)
#   BENCH_FED_SVC        backend service time, ms           (default 0)
#   BENCH_FED_SWEEP      set to 0 to skip the federation sweep entirely
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [ ! -x "$build_dir/bench/micro_core" ] || [ ! -x "$build_dir/bench/daemon_loadgen" ]; then
  echo "error: bench binaries not found under $build_dir/bench — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

echo "== micro benches -> BENCH_core.json"
"$build_dir/bench/micro_core" \
  --benchmark_repetitions=5 \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_core.json" \
  --benchmark_out_format=json

tmp_main="$build_dir/bench_daemon_main.json"
tmp_policy="$build_dir/bench_daemon_policy.json"
tmp_overload="$build_dir/bench_daemon_overload.json"
tmp_fed="$build_dir/bench_daemon_federation.json"
tmp_arrivals="$build_dir/bench_daemon_arrivals.json"

# check=1 gates every run: conservation, one reply per request frame with its
# own target's body, and live flush counters.
echo "== daemon loadgen (channel/cache sweep)"
"$build_dir/bench/daemon_loadgen" \
  "shards=${BENCH_SHARDS:-1,2,4}" \
  "pipeline=${BENCH_PIPELINE:-0,1}" \
  "clients=${BENCH_CLIENTS:-64}" \
  "seconds=${BENCH_SECONDS:-2}" \
  "keys=${BENCH_KEYS:-512}" \
  "cache=${BENCH_CACHE:-1}" \
  "timeout=${BENCH_TIMEOUT_MS:-0}" \
  "stallpct=${BENCH_STALLPCT:-0}" \
  "attempts=${BENCH_ATTEMPTS:-1}" \
  "obs=${BENCH_OBS:-1}" \
  "scrape=${BENCH_SCRAPE:-1}" \
  "dup=${BENCH_DUP:-0,0.8}" \
  "ttl=${BENCH_TTL:-0.05}" \
  "grace=${BENCH_GRACE:-0.025}" \
  "jitter=${BENCH_JITTER:-0.1}" \
  "negttl=${BENCH_NEGTTL:-0}" \
  "coalesce=${BENCH_COALESCE:-1}" \
  "burst=${BENCH_BURST:-1}" \
  check=1 \
  "out=$tmp_main"

if [ "${BENCH_POLICY_SWEEP:-1}" = "1" ]; then
  # Replica-selection sweep: heterogeneous pool (the last replica is
  # BENCH_SKEW x slower), cache off so every request rides the picker under
  # test. check=1 gates pick conservation and the slow-share ordering.
  echo "== daemon loadgen (policy sweep)"
  "$build_dir/bench/daemon_loadgen" \
    "shards=${BENCH_SHARDS_POLICY:-1}" \
    "pipeline=${BENCH_PIPELINE_POLICY:-1}" \
    "clients=${BENCH_CLIENTS:-64}" \
    "seconds=${BENCH_SECONDS:-2}" \
    "keys=${BENCH_KEYS:-512}" \
    cache=0 \
    "obs=${BENCH_OBS:-1}" \
    "scrape=${BENCH_SCRAPE:-1}" \
    "policy=${BENCH_POLICY:-round-robin,least-outstanding,ewma,p2c}" \
    "replicas=${BENCH_REPLICAS:-3}" \
    "svc=${BENCH_SVC:-2}" \
    "skew=${BENCH_SKEW:-1,6}" \
    "degrade=${BENCH_DEGRADE:-0}" \
    check=1 \
    "out=$tmp_policy"
else
  printf 'null\n' > "$tmp_policy"
fi

if [ "${BENCH_OVERLOAD_SWEEP:-1}" = "1" ]; then
  # Flash-crowd overload sweep: a deliberately mistuned static threshold
  # against one saturated serial replica, so the feedback-driven controllers
  # have something to recover. check=1 gates that every aimd run's
  # crowd-phase goodput >= the static run's, plus conservation.
  echo "== daemon loadgen (flash-crowd overload sweep)"
  "$build_dir/bench/daemon_loadgen" \
    shards=1 \
    pipeline=1 \
    "clients=${BENCH_OVERLOAD_CLIENTS:-6}" \
    "seconds=${BENCH_OVERLOAD_SECONDS:-2.4}" \
    "keys=${BENCH_KEYS:-512}" \
    cache=0 \
    "obs=${BENCH_OBS:-1}" \
    "scrape=${BENCH_SCRAPE:-1}" \
    "timeout=${BENCH_OVERLOAD_TIMEOUT_MS:-150}" \
    "threshold=${BENCH_OVERLOAD_THRESHOLD:-150}" \
    replicas=1 \
    "svc=${BENCH_OVERLOAD_SVC:-10}" \
    "window=${BENCH_WINDOW:-2}" \
    "crowd=${BENCH_CROWD:-10}" \
    "ramp=${BENCH_RAMP:-0.4}" \
    "backoff=${BENCH_BACKOFF:-20}" \
    "oeval=${BENCH_OEVAL:-0.1}" \
    "overload=${BENCH_OVERLOAD:-static,aimd,aimd+lifo}" \
    check=1 \
    "out=$tmp_overload"
else
  printf 'null\n' > "$tmp_overload"
fi

if [ "${BENCH_ARRIVALS_SWEEP:-1}" = "1" ]; then
  # Open-loop arrivals sweep: the closed-loop baseline first, then the same
  # offered load replayed open-loop so stalls charge latency to the requests
  # that were due during them. check=1 gates sent == scheduled (no elision)
  # and corrected p99 >= uncorrected p99.
  echo "== daemon loadgen (open-loop arrivals sweep)"
  "$build_dir/bench/daemon_loadgen" \
    shards=1 \
    pipeline=1 \
    "clients=${BENCH_ARRIVALS_CLIENTS:-16}" \
    "seconds=${BENCH_SECONDS:-2}" \
    "keys=${BENCH_KEYS:-512}" \
    cache=0 \
    "obs=${BENCH_OBS:-1}" \
    "scrape=${BENCH_SCRAPE:-1}" \
    "arrivals=${BENCH_ARRIVALS:-closed,poisson,bursty}" \
    "rate=${BENCH_RATE:-500}" \
    "seed=${BENCH_ARRIVAL_SEED:-42}" \
    "duty=${BENCH_DUTY:-0.3}" \
    "period=${BENCH_PERIOD:-1}" \
    "floor=${BENCH_FLOOR:-0.2}" \
    "link=${BENCH_LINK:-none}" \
    check=1 \
    "out=$tmp_arrivals"
else
  printf 'null\n' > "$tmp_arrivals"
fi

if [ "${BENCH_FED_SWEEP:-1}" = "1" ]; then
  # Federation sweep: a 1-node baseline then a BENCH_PEERS-process tier over
  # the identical round-robin keyed workload (forked daemons, one shared
  # backend). check=1 gates aggregate backend-call conservation and tier hit
  # ratio >= single-node.
  echo "== federation demo (1 vs ${BENCH_PEERS:-3} nodes)"
  "$build_dir/examples/federation_demo" \
    "peers=${BENCH_PEERS:-3}" \
    "clients=${BENCH_FED_CLIENTS:-6}" \
    "requests=${BENCH_FED_REQUESTS:-1920}" \
    "keys=${BENCH_FED_KEYS:-64}" \
    "svc=${BENCH_FED_SVC:-0}" \
    check=1 \
    "out=$tmp_fed"
else
  printf 'null\n' > "$tmp_fed"
fi

# Compose the sweeps into one artifact: the channel/cache sweep's document
# under "main" (its "runs" array is the historical trajectory), the
# replica-selection sweep under "policy", the flash-crowd overload sweep
# under "overload", the open-loop arrivals sweep under "arrivals", the 1-vs-N
# federation comparison under "federation".
{
  printf '{"bench":"daemon_loadgen","main":'
  cat "$tmp_main"
  printf ',"policy":'
  cat "$tmp_policy"
  printf ',"overload":'
  cat "$tmp_overload"
  printf ',"arrivals":'
  cat "$tmp_arrivals"
  printf ',"federation":'
  cat "$tmp_fed"
  printf '}\n'
} > "$repo_root/BENCH_daemon.json"
rm -f "$tmp_main" "$tmp_policy" "$tmp_overload" "$tmp_arrivals" "$tmp_fed"

echo "== wrote $repo_root/BENCH_core.json and $repo_root/BENCH_daemon.json"
