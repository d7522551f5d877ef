#!/usr/bin/env bash
# Full check: tier-1 (default build) plus the sanitizer tiers.
#
#   tools/check.sh            # tier-1 + ASan/UBSan + TSan
#   tools/check.sh --tier1    # tier-1 only
#   tools/check.sh --asan     # ASan/UBSan tier only
#   tools/check.sh --tsan     # TSan tier only
#
# The sanitizer tiers build into build-asan/ and build-tsan/ via the
# CMakePresets.json presets; the TSan tier additionally hammers the
# concurrency-heavy suites (engine, digest parity, cluster) since that
# is where data races would live.

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TIER1=1
RUN_ASAN=1
RUN_TSAN=1
case "${1:-}" in
  --tier1) RUN_ASAN=0; RUN_TSAN=0 ;;
  --asan)  RUN_TIER1=0; RUN_TSAN=0 ;;
  --tsan)  RUN_TIER1=0; RUN_ASAN=0 ;;
  "") ;;
  *) echo "usage: tools/check.sh [--tier1|--asan|--tsan]" >&2; exit 2 ;;
esac

run() { echo "+ $*" >&2; "$@"; }

# Per-test watchdog: the writer-stage/backpressure suites assert
# deadlock-freedom by *completing*, so a hung test must fail loudly
# instead of stalling the whole tier.
CTEST_TIMEOUT=${CTEST_TIMEOUT:-120}

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "=== tier-1: default build + full test suite ==="
  run cmake --preset default
  run cmake --build --preset default -j "$(nproc)"
  run ctest --preset default --timeout "$CTEST_TIMEOUT"
  echo "=== tier-1: SIMD parity suite again under DBSYNTHPP_SIMD=off ==="
  # The full ctest pass above ran with native dispatch (AVX2/NEON where
  # available); re-running the kernel/pipeline parity suites with the
  # scalar fallback forced keeps that path from rotting.
  run env DBSYNTHPP_SIMD=off ctest --preset default \
    --timeout "$CTEST_TIMEOUT" -R "Simd|Batch|FormatRoundtrip"
  echo "=== tier-1: scheduler/engine parity again under DBSYNTHPP_NUMA=off ==="
  # The full pass above ran with the env default (placement on); forcing
  # placement off re-proves the historical no-pinning path still produces
  # identical bytes and keeps it from rotting (the DBSYNTHPP_SIMD=off
  # discipline applied to NUMA).
  run env DBSYNTHPP_NUMA=off ctest --preset default \
    --timeout "$CTEST_TIMEOUT" -R "Schedul|Numa|Topology|Engine"
  echo "=== tier-1: metrics overhead gate (fail if metrics-on costs >10%) ==="
  # Best-of-5 engine runs with metrics off vs. on at a tiny scale factor;
  # exits non-zero if the delta exceeds METRICS_GATE_PCT (default 10).
  run ./build/bench/bench_fig5_scaleup 0.005 --overhead-gate
  echo "=== tier-1: batch pipeline gate (fail if batch regresses below scalar) ==="
  # Interleaved best-of-5 scalar/batch pairs on identical work,
  # self-calibrated against this commit's own scalar pipeline; exits
  # non-zero unless batch rows/s >= BATCH_GATE_X (default 1.0) x scalar.
  run ./build/bench/bench_fig5_scaleup 0.005 --batch-gate
  echo "=== tier-1: async writer gate (fail if async < 1.1x inline on slow sink) ==="
  # Inline vs. async writer stage against a throttled sink, plus the
  # default-scenario regression guard (WRITER_GATE_X / WRITER_REGRESSION_PCT).
  run ./build/bench/bench_fig5_scaleup 0.005 --writer-gate
  echo "=== tier-1: NUMA placement gate (self-calibrating: parity single-node, >=1.1x multi-node) ==="
  # Interleaved numa=off/on pairs under the kNuma scheduler with digest
  # equality asserted; a single-node host proves placement is free, a
  # multi-node host must show the NUMA_GATE_X win (default 1.1x).
  run ./build/bench/bench_fig5_scaleup 0.005 --numa-gate
  echo "=== tier-1: bulk-load gate (paged bulk >= row-at-a-time ingest) ==="
  # Self-calibrated: the same process loads TPC-H through the paged
  # engine both ways and the bulk fast path must not lose to WAL-logged
  # row inserts (LOAD_GATE_X, default 1.0). Also cross-checks that every
  # engine/path combination digests to identical table bytes.
  run ./build/bench/bench_load 0.01 --quick --load-gate
  echo "=== tier-1: serve daemon smoke (job + range + metrics + clean shutdown) ==="
  run tools/serve_smoke.sh ./build/tools/dbsynthpp
  echo "=== tier-1: on-the-fly smoke (virtual SELECT + stream replay) ==="
  run tools/onthefly_smoke.sh ./build/tools/dbsynthpp
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "=== sanitizer tier: ASan + UBSan ==="
  run cmake --preset asan-ubsan
  run cmake --build --preset asan-ubsan -j "$(nproc)"
  run ctest --preset asan-ubsan --timeout "$CTEST_TIMEOUT"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "=== sanitizer tier: TSan (concurrency suites) ==="
  run cmake --preset tsan
  run cmake --build --preset tsan -j "$(nproc)" --target \
    tests_core tests_integration tests_cli tests_serve tests_minidb \
    tests_minidb_storage
  run ctest --preset tsan --timeout "$CTEST_TIMEOUT" -R \
    "Engine|Digest|SimCluster|Progress|Determinism|Cli|Metrics|NodeShare|Batch|Schedul|Writer|Serve|Storage|Btree|Wal|Numa|Topology|Cursor|Stream|VirtualCatalog"
fi

echo "all requested tiers passed"
