#!/usr/bin/env bash
# Sanitizer / quick-check gate (see CONTRIBUTING.md).
#
# Default mode is the sanitizer gate. First, TSan for the concurrent query
# path: builds the test suite with -DURBANE_SANITIZE=thread and runs the
# suites that exercise cross-thread behavior:
#   * the shared-engine concurrency tests (N sessions on one facade) and
#     the shared-executor concurrency tests (N threads on one instance of
#     each executor: executors are immutable after Create, so any
#     per-query state left on one is a data race here),
#   * the thread-pool tests (ThreadPool::Batch runs every sharded pass:
#     its task hand-off and Wait fence are the synchronization every shard
#     result crosses),
#   * the QueryCache unit tests (sharded LRU under mixed traffic),
#   * the facade cache tests (stale-ε regression included),
#   * the obs metrics concurrency tests (threads vs serial oracle) and the
#     observability-determinism oracle (metrics on plus an attached query
#     profile must leave every executor's results bit-identical),
#   * the telemetry pipeline suites (event-journal MPSC ring producers vs
#     drainer, slow-query recorder, the exporter's sink thread),
#   * the query-server suites (concurrent HTTP round trips, admission
#     control, graceful drain, per-request deadlines, a half-open client
#     beside /healthz scrapes) and the net substrate,
#   * the block-store suites: the store-vs-in-memory oracle (4-shard
#     reads of a memory-mapped store, and the pread fallback copy), plus
#     the corrupt-file corpus so the hardened I/O layer is swept by the
#     sanitizer too,
#   * the sharded scatter-gather suites (`shard` label): the shard-merge
#     oracle across pool sizes, the adversarial completion-order
#     interleaving harness, fault injection, and the facade/server
#     surfaces — per-shard slot publication and the Batch::Wait fence are
#     exactly the kind of contract TSan can falsify.
# Any data race aborts the run: TSAN_OPTIONS makes warnings fatal.
#
# The default gate then builds simd_test, core_test and ingest_test under
# AddressSanitizer (-DURBANE_SANITIZE=address, in ${ASAN_BUILD_DIR}) and
# runs the `simd` label once per URBANE_SIMD level, then the filter unit
# tests once, then the live-engine and raster-join suites once. The vector
# kernels load whole vectors up to the last full block of a column or mask
# and finish with scalar tails, so a load past a column end is a heap
# overflow this step reports. The raster joins compose several point
# sources on one leased target set, each source's rows offset into one
# concatenated row space and its boundary runs indexed by the region
# state's sorted keys, so an off-by-one there reads past a buffer too. Any
# report aborts.
#
# `--fast` instead builds a plain (unsanitized) tree and runs only the
# suites labeled `fast` in tests/CMakeLists.txt — the seconds-scale
# inner-loop gate. It also builds every bench/ binary and examples/
# walkthrough, so a change that breaks one fails here rather than in the
# full build. The fast gate then re-runs the `simd` label (kernel tables,
# Morton splat order, raster-executor bit-identity, the region-derived
# canvas's outlier-row and box-edge tests, and the replay golden that pins
# answers, plans and work totals across commits) once per
# URBANE_SIMD level — off, sse2 and, when the CPU has it, avx2 — so every
# dispatchable code path is exercised even though `auto` would pick only
# the widest one. Levels the CPU lacks clamp down, so the loop is safe on
# any machine. It then runs bench_micro_substrate's BM_SimdKernel once at a
# short minimum time: every kernel-table entry at every level goes through
# the bench, so a workload list and argument list that disagree fail here.
#
# The fast gate finally builds the end-to-end benchmark (perfbench/, its
# own CMake project compiled from this checkout's src/) into
# ${BUILD_DIR}/perfbench and runs its unit tests, so a src/ API change that
# breaks the benchmark's build fails here rather than in a benchmark run.
#
# The TSan job pins URBANE_SIMD=off: the sanitizer gate is about
# cross-thread interleavings, which are identical at every level by the
# bit-identity contract, and the scalar path keeps the instrumented build
# debuggable.
#
# Usage: tools/check.sh [--fast] [extra ctest args...]
#   BUILD_DIR=build-tsan  override the build directory (build-fast in --fast)
#   ASAN_BUILD_DIR=build-asan  override the AddressSanitizer build directory
#   JOBS=N                override the build parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

MODE=tsan
if [[ "${1:-}" == "--fast" ]]; then
  MODE=fast
  shift
fi

# Every URBANE_SIMD level this CPU can run (levels it lacks clamp down).
SIMD_LEVELS="off sse2"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  SIMD_LEVELS="${SIMD_LEVELS} avx2"
fi

if [[ "${MODE}" == "fast" ]]; then
  BUILD_DIR=${BUILD_DIR:-build-fast}
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  # Each bench/bench_*.cc and examples/*.cpp is a target of the same name.
  BENCH_TARGETS=$(basename -s .cc bench/bench_*.cc)
  EXAMPLE_TARGETS=$(basename -s .cpp examples/*.cpp)
  cmake --build "${BUILD_DIR}" -j "${JOBS}" \
    --target util_test geometry_test raster_test simd_test index_test \
             core_test data_test obs_test obs_pipeline_test net_test \
             store_test shard_unit_test shard_test server_shard_test \
             profile_test server_profile_test \
             ingest_unit_test ingest_test server_ingest_test \
             ${BENCH_TARGETS} ${EXAMPLE_TARGETS}
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L fast "$@"
  # The full shard conformance gate (oracle, property, interleave, fault,
  # store/server surfaces) — slow-labeled suites included on purpose: the
  # merge contract is this repo's current frontier.
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L shard "$@"
  # The query-profile gate (DESIGN.md §12): traceparent corpus, profile
  # goldens, and the HTTP propagation suite (slow-labeled, so -L fast
  # above does not already cover all of it).
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L profile "$@"
  # The streaming-ingest gate (DESIGN.md §13): WAL corruption corpus,
  # LiveTable recovery, the ingest-equivalence oracle (every lifecycle
  # stage bit-identical to a stop-the-world rebuild), and the HTTP ingest
  # surface (slow-labeled, so -L fast above does not already cover it).
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L ingest "$@"
  for level in ${SIMD_LEVELS}; do
    echo "== simd suite @ URBANE_SIMD=${level} =="
    URBANE_SIMD="${level}" \
      ctest --test-dir "${BUILD_DIR}" --output-on-failure -L simd "$@"
  done
  echo "== bench_micro_substrate kernels @ every level =="
  "${BUILD_DIR}/bench/bench_micro_substrate" \
    --benchmark_filter=BM_SimdKernel --benchmark_min_time=0.01
  echo "== perfbench build + unit tests =="
  cmake -B "${BUILD_DIR}/perfbench" -S perfbench \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}" \
    --target urbane_perfbench perfbench_test
  "${BUILD_DIR}/perfbench/perfbench_test"
  echo "fast check OK"
  exit 0
fi

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "${BUILD_DIR}" -S . \
  -DURBANE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target util_test core_test obs_test obs_pipeline_test net_test \
           server_test store_test shard_unit_test shard_test \
           server_shard_test profile_test server_profile_test \
           ingest_unit_test ingest_test server_ingest_test

URBANE_SIMD=off \
TSAN_OPTIONS="halt_on_error=1 abort_on_error=1${TSAN_OPTIONS:+ ${TSAN_OPTIONS}}" \
ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'ThreadPool|EngineConcurrency|ExecutorConcurrency|QueryCache|SpatialAggregation|MetricsConcurrency|ObservabilityDeterminism|EventJournal|SlowQuery|TelemetryExporter|QueryServer|QueryControl|Socket|HttpRequestParser|StoreOracle|StoreCorruption|StoreTruncation' \
  "$@"

# The adversarial-interleaving merge suite and the rest of the shard layer
# under TSan: hostile completion orders + instrumented synchronization is
# the strongest check we have that merge-order independence is real.
URBANE_SIMD=off \
TSAN_OPTIONS="halt_on_error=1 abort_on_error=1${TSAN_OPTIONS:+ ${TSAN_OPTIONS}}" \
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L shard "$@"

# The profile plumbing under TSan: per-shard wall/CPU slots are written on
# pool workers and folded on the coordinator after the gather fence, and
# the ProfileStore takes concurrent inserts from server workers — both
# claims the instrumented build should be allowed to falsify.
URBANE_SIMD=off \
TSAN_OPTIONS="halt_on_error=1 abort_on_error=1${TSAN_OPTIONS:+ ${TSAN_OPTIONS}}" \
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L profile "$@"

# The ingest write path under TSan: Append/Flush/Compact race Snapshot and
# the LiveEngine's refresh + scoped cache invalidation; the WAL writer and
# the component-swap publication are exactly the cross-thread contracts an
# instrumented build should be allowed to falsify.
URBANE_SIMD=off \
TSAN_OPTIONS="halt_on_error=1 abort_on_error=1${TSAN_OPTIONS:+ ${TSAN_OPTIONS}}" \
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L ingest "$@"

echo "tsan check OK"

ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "${ASAN_BUILD_DIR}" -S . \
  -DURBANE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}" \
  --target simd_test core_test ingest_test
for level in ${SIMD_LEVELS}; do
  echo "== asan simd suite @ URBANE_SIMD=${level} =="
  URBANE_SIMD="${level}" \
  ASAN_OPTIONS="halt_on_error=1 abort_on_error=1${ASAN_OPTIONS:+ ${ASAN_OPTIONS}}" \
  ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure -L simd "$@"
done
echo "== asan filter tests =="
ASAN_OPTIONS="halt_on_error=1 abort_on_error=1${ASAN_OPTIONS:+ ${ASAN_OPTIONS}}" \
ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure \
  -R '^(FilterSpecTest|TimeRangeTest|CompiledFilterTest|EvaluateFilterTest)\.' \
  "$@"
echo "== asan live-engine and raster-join suites =="
ASAN_OPTIONS="halt_on_error=1 abort_on_error=1${ASAN_OPTIONS:+ ${ASAN_OPTIONS}}" \
ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure \
  -R 'LiveEngine|AccurateRasterJoin|BoundedRasterJoin|RasterJoinComposition|SpatialAggregation' \
  "$@"

echo "asan check OK"
