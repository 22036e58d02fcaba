#!/usr/bin/env bash
# CI entry point: release build + full test suite + a loopback network
# smoke (popdb_server driven by the scripted popdb_client session), a
# mixed OLTP/OLAP smoke (DML drift firing CHECK re-optimizations, stats
# folds, plan-cache recovery over the wire), a distributed smoke (2 shard
# processes + a scatter-gather coordinator, including a
# stitched-cluster-trace / federated-metrics / query-log check and a
# kill -9 of one shard mid-query), then a ThreadSanitizer build that
# hammers the concurrent pieces (runtime query service, network front
# end, morsel parallelism, shared feedback stores, parallel executors,
# write-path snapshot consistency, metrics registry, span tracer), then a
# UBSan build over the tracing/metrics/runtime/parallel/network/write
# suites, then an ASan build over the suites that move per-query records
# (QueryTrace, the query log, the trace store) between threads and across
# the wire, and over the executor, plan-cache, plan-reuse oracle
# (plan-cache equivalence, incremental re-optimization, enumerator) and
# write-path suites.
#
# The release ctest runs everything including tests labeled "slow"
# (parallel_stress_test); use `ctest -L fast` locally for the quick loop.
# The sanitizer stages run the parallel-, plan-cache-, and batch-size
# differential suites in light mode (POPDB_EQUIV_LIGHT=1) — the full
# corpus sweeps are release-only.
#
# Usage: ./ci.sh [--skip-tsan] [--skip-ubsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")"

SKIP_TSAN=0
SKIP_UBSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-ubsan" ]] && SKIP_UBSAN=1
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
done

echo "=== release build + full ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== network smoke: popdb_server + scripted client on loopback ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./build/examples/popdb_server toy --quiet --allow-shutdown \
    --port-file "$SMOKE_DIR/port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/port" ]] || { echo "server never wrote its port file"; exit 1; }
./build/examples/popdb_client --port-file "$SMOKE_DIR/port" --smoke
# The smoke script ends with a wire `shutdown` request; the server must
# exit 0 on its own (clean shutdown, no leaked threads keeping it alive).
wait "$SERVER_PID"

echo "=== mixed-workload smoke: DML + analytics over the wire ==="
# Drives the write path end to end on a fresh toy server: INSERT drift
# into a believed-empty region fires a CHECK re-optimization, a
# threshold-crossing batch folds statistics and evicts cached plans, the
# repeat query recovers to cache hits, and UPDATE/DELETE, the write query
# log, write metrics, and a concurrent reader/writer burst are asserted.
./build/examples/popdb_server toy --quiet --allow-shutdown \
    --port-file "$SMOKE_DIR/mixed.port" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/mixed.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/mixed.port" ]] || { echo "server never wrote its port file"; exit 1; }
./build/examples/popdb_client --port-file "$SMOKE_DIR/mixed.port" --mixed-smoke
wait "$SERVER_PID"

echo "=== distributed smoke: 2 shards + coordinator, shard kill mid-query ==="
# Two shard processes (stalled row batches so a mid-query kill reliably
# lands mid-stream) and a coordinator scatter-gathering across them.
./build/examples/popdb_server toy --quiet --trace \
    --shard-index 0 --shard-count 2 --subplan-stall-ms 20 \
    --port-file "$SMOKE_DIR/shard0.port" &
SHARD0_PID=$!
./build/examples/popdb_server toy --quiet --trace \
    --shard-index 1 --shard-count 2 --subplan-stall-ms 20 \
    --port-file "$SMOKE_DIR/shard1.port" &
SHARD1_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/shard0.port" && -s "$SMOKE_DIR/shard1.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/shard0.port" && -s "$SMOKE_DIR/shard1.port" ]] \
    || { echo "shards never wrote their port files"; exit 1; }
# Small row batches + the per-batch stall make full-table scans take
# seconds, so the kill below reliably lands mid-stream.
./build/examples/popdb_server toy --quiet --coordinator --trace \
    --shards "127.0.0.1:$(cat "$SMOKE_DIR/shard0.port"),127.0.0.1:$(cat "$SMOKE_DIR/shard1.port")" \
    --dist-batch-rows 32 --port-file "$SMOKE_DIR/coord.port" &
COORD_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/coord.port" ]] && break
  sleep 0.1
done
[[ -s "$SMOKE_DIR/coord.port" ]] || { echo "coordinator never wrote its port file"; exit 1; }
COORD_PORT="$(cat "$SMOKE_DIR/coord.port")"

# Query mix: sharded aggregation, co-partitioned join with the correlated
# predicate trap (drives a coordinator-level re-optimization), and a
# non-shardable query that falls back to local execution.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_class, COUNT(*) FROM orders GROUP BY o_class ORDER BY 1"
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_class, SUM(i_qty), AVG(i_qty) FROM orders, items WHERE o_id = i_order AND o_class = 7 AND o_subclass = 77 GROUP BY o_class"
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT COUNT(*) FROM big_a, big_b WHERE a_k = b_k"

# Cluster observability plane: the stitched Chrome trace must carry
# events from the coordinator AND both shard processes (pid rows 0/1/2),
# the federated exposition must label per-shard samples, and the
# structured query log must have recorded the trap's re-optimization.
./build/examples/popdb_client --port "$COORD_PORT" \
    --trace-dump "$SMOKE_DIR/cluster-trace.json"
grep -q '"pid":1' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace is missing shard 0's timeline"; exit 1; }
grep -q '"pid":2' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace is missing shard 1's timeline"; exit 1; }
grep -q '"subplan_execute"' "$SMOKE_DIR/cluster-trace.json" \
    || { echo "stitched trace has no shard execution spans"; exit 1; }
./build/examples/popdb_client --port "$COORD_PORT" --cluster-metrics \
    > "$SMOKE_DIR/cluster-metrics.txt"
grep -q 'shard="1"' "$SMOKE_DIR/cluster-metrics.txt" \
    || { echo "federated metrics are missing shard labels"; exit 1; }
grep -q 'popdb_dist_shard_latency_ms' "$SMOKE_DIR/cluster-metrics.txt" \
    || { echo "federated metrics are missing the per-shard latency family"; exit 1; }
./build/examples/popdb_client --port "$COORD_PORT" --log \
    > "$SMOKE_DIR/query-log.json"
grep -q '"reopts":[1-9]' "$SMOKE_DIR/query-log.json" \
    || { echo "query log did not record the trap re-optimization"; exit 1; }
grep -q '"distributed":true' "$SMOKE_DIR/query-log.json" \
    || { echo "query log did not mark the scatter-gather queries"; exit 1; }
echo "cluster observability smoke passed (trace + metrics + query log)"

# Kill shard 1 mid-query: the stalled scan takes seconds, the kill -9
# lands mid-stream, and the client must get a clean error — not a hang.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT o_id, o_subclass FROM orders" > "$SMOKE_DIR/killed.out" 2>&1 &
KILLED_CLIENT_PID=$!
sleep 0.5
kill -9 "$SHARD1_PID"
KILLED_RC=0
wait "$KILLED_CLIENT_PID" || KILLED_RC=$?
[[ "$KILLED_RC" != "0" ]] \
    || { echo "query against a killed shard unexpectedly succeeded"; exit 1; }
grep -qi "unavailable\|shard" "$SMOKE_DIR/killed.out" \
    || { echo "shard-kill error not surfaced:"; cat "$SMOKE_DIR/killed.out"; exit 1; }
echo "shard kill surfaced cleanly: $(head -1 "$SMOKE_DIR/killed.out")"

# The coordinator survives the shard death: local-fallback queries still
# answer on the same server.
./build/examples/popdb_client --port "$COORD_PORT" \
    "SELECT COUNT(*) FROM big_a WHERE a_v < 100"

kill "$COORD_PID" "$SHARD0_PID"
wait "$COORD_PID" "$SHARD0_PID" 2>/dev/null || true
wait "$SHARD1_PID" 2>/dev/null || true

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "=== TSan stage skipped (--skip-tsan) ==="
else
  echo "=== ThreadSanitizer build + concurrency tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPOPDB_SANITIZE=thread
  cmake --build build-tsan -j \
        --target runtime_test concurrency_test observability_test \
        morsel_test parallel_equivalence_test plan_cache_test \
        plan_cache_equivalence_test batch_differential_test \
        reopt_differential_test fuzz_test txn_test \
        parallel_stress_test net_test dist_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/runtime_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/concurrency_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/observability_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/morsel_test
  TSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-tsan/tests/parallel_equivalence_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/plan_cache_test
  TSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-tsan/tests/plan_cache_equivalence_test
  # Batch-size differential oracle (ctest label "batch") in light mode:
  # the full batch-size sweep is release-only.
  TSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-tsan/tests/batch_differential_test
  # Incremental-vs-full-DP re-optimization oracle (ctest label "reopt")
  # in light mode, plus its randomized perturbation leg from fuzz_test.
  TSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-tsan/tests/reopt_differential_test
  TSAN_OPTIONS="halt_on_error=1" \
      ./build-tsan/tests/fuzz_test --gtest_filter='*IncrementalReopt*'
  # Write path (ctest label "txn"): copy-on-write snapshot hammer with
  # concurrent writers/readers plus the dop-1-vs-4 differential leg.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/txn_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_stress_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_test
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/dist_test
fi

if [[ "$SKIP_UBSAN" == "1" ]]; then
  echo "=== UBSan stage skipped (--skip-ubsan) ==="
else
  echo "=== UndefinedBehaviorSanitizer build + observability/runtime tests ==="
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPOPDB_SANITIZE=undefined
  cmake --build build-ubsan -j \
        --target runtime_test observability_test operator_test pop_test \
        morsel_test parallel_equivalence_test plan_cache_test \
        plan_cache_equivalence_test batch_differential_test \
        reopt_differential_test fuzz_test txn_test net_test dist_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/observability_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/runtime_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/operator_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/pop_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/morsel_test
  UBSAN_OPTIONS="halt_on_error=1" \
      ./build-ubsan/tests/parallel_equivalence_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/plan_cache_test
  UBSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-ubsan/tests/plan_cache_equivalence_test
  # Batch-boundary CHECK math (floor/truncation) is exactly what UBSan
  # watches for; run the differential oracle's full light corpus here too.
  UBSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-ubsan/tests/batch_differential_test
  # Memo invalidation is bit-twiddling over table sets (low_bit loops,
  # superset masks) — UBSan's shift/overflow checks cover exactly that.
  UBSAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-ubsan/tests/reopt_differential_test
  UBSAN_OPTIONS="halt_on_error=1" \
      ./build-ubsan/tests/fuzz_test --gtest_filter='*IncrementalReopt*'
  # StatsDelta histogram/NDV fold arithmetic and chunked COW row-version
  # math are integer-heavy — UBSan's overflow checks cover them.
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/txn_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/net_test
  UBSAN_OPTIONS="halt_on_error=1" ./build-ubsan/tests/dist_test
fi

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "=== ASan stage skipped (--skip-asan) ==="
else
  echo "=== AddressSanitizer build + per-query record, executor, plan-cache and write-path tests ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DPOPDB_SANITIZE=address
  cmake --build build-asan -j "$(nproc)" \
        --target observability_test runtime_test net_test dist_test \
        operator_test extensions_test morsel_test batch_differential_test \
        parallel_equivalence_test plan_cache_test txn_test \
        plan_cache_equivalence_test reopt_differential_test enumerator_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/observability_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/runtime_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/net_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/dist_test
  # The executor: held batches and one-row batches read in place, the
  # HSJN probe cursor, pooled batch columns, morsel buffers and the batch
  # sink.
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/operator_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/extensions_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/morsel_test
  ASAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-asan/tests/batch_differential_test
  ASAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-asan/tests/parallel_equivalence_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/plan_cache_test
  # Plans shared between the cache, its clones and the DP memo are
  # shared_ptr trees; the plan-reuse oracles and the enumerator's memo
  # tests walk every path that hands them out.
  ASAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-asan/tests/plan_cache_equivalence_test
  ASAN_OPTIONS="halt_on_error=1" POPDB_EQUIV_LIGHT=1 \
      ./build-asan/tests/reopt_differential_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/enumerator_test
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/tests/txn_test
fi

echo "=== ci.sh: all stages passed ==="
