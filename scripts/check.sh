#!/usr/bin/env bash
# Full verification sweep: regular build + tests, then the whole suite
# again under address+undefined sanitizers (-DXQC_SANITIZE), then the
# concurrency-sensitive suites under ThreadSanitizer.
#
# Usage: scripts/check.sh [--sanitize-only]
#
# The deep-recursion robustness tests are calibrated for production frame
# sizes; sanitizer frames are far larger, so the sanitized run raises the
# stack limit (see the XQC_SANITIZE comment in CMakeLists.txt).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

if [[ "${1:-}" != "--sanitize-only" ]]; then
  echo "=== regular build + tests (build/) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "=== bench smoke run (bench_axes, minimal time) ==="
  # One short pass over the axis benchmarks so index/DDO regressions that
  # only show up in the bench harness are caught here, not at bench time.
  # (benchmark 1.7.x: --benchmark_min_time takes seconds, not "1x".)
  XQC_SCALE="${XQC_BENCH_SMOKE_SCALE:-0.1}" ./build/bench/bench_axes \
    --benchmark_min_time=0.01 >/dev/null

  echo "=== bench smoke run (bench_table4, bench_table5, minimal time) ==="
  # The paper's join tables: every join column of Table 4 (XMark Q8-Q20)
  # and Table 5 (Clio N2-N4), so a plan that stops unnesting or a join
  # that stops indexing fails here as an error, not as a slow bench.
  XQC_SCALE="${XQC_BENCH_SMOKE_SCALE:-0.1}" ./build/bench/bench_table4 \
    --benchmark_min_time=0.01 >/dev/null
  XQC_SCALE="${XQC_BENCH_SMOKE_SCALE:-0.1}" ./build/bench/bench_table5 \
    --benchmark_min_time=0.01 >/dev/null

  echo "=== batched-execution parity sweep + bench_batch smoke ==="
  # The batch-size ablations: corpus + property byte-parity sweeps over
  # {1,2,3,7,1024}, the ExecStats invariance check, and the guard
  # trip/allocation/early-exit parity suites; the early-exit and
  # materializing-mode checks of streaming_test; the golden ExecStats of
  # the paper queries in both modes; then a short pass over the batch
  # benchmarks so bench-harness regressions surface here.
  ./build/tests/corpus_test --gtest_brief=1
  ./build/tests/property_test --gtest_filter='*BatchSizesAgree*' \
    --gtest_brief=1
  ./build/tests/engine_test --gtest_filter='*BatchSizeInvariant*' \
    --gtest_brief=1
  ./build/tests/guard_test --gtest_filter='*Batched*' --gtest_brief=1
  ./build/tests/streaming_test --gtest_brief=1
  ./build/tests/golden_stats_test --gtest_brief=1
  XQC_SCALE="${XQC_BENCH_SMOKE_SCALE:-0.1}" ./build/bench/bench_batch \
    --benchmark_min_time=0.01 >/dev/null

  echo "=== intra-query parallelism parity sweep + bench_parallel smoke ==="
  # The one partition cut: a split op runs over contiguous ranges of its
  # source (a collection's member documents or a driving scan's rows) and
  # the parts concatenate in order. Byte parity across parallelism levels
  # (collection corpus, XMark-style, eviction-scrambled caches, generated
  # property queries, the generated nested FLWOR family), with
  # summed-ExecStats parity on the collection corpus and on XMark Q8-Q12
  # and Clio N2-N4 under every join algorithm, batch size and exec mode;
  # guard trip-code parity on split budgets (a collection cut and a split
  # N4), and the shared-TaskPool stress, then a short pass over the
  # parallelism benchmarks (which self-verify every configuration against
  # the serial oracle before timing).
  ./build/tests/parallel_test --gtest_brief=1
  ./build/tests/property_test \
    --gtest_filter='*ParallelismLevelsAgree*:NestedFlworFamily.SplitsByDrivingScan' \
    --gtest_brief=1
  ./build/tests/guard_test --gtest_filter='ParallelGuard*' --gtest_brief=1
  ./build/tests/concurrency_test \
    --gtest_filter='*SharedTaskPool*:*PartitionedRequests*' --gtest_brief=1
  XQC_SCALE="${XQC_BENCH_SMOKE_SCALE:-0.1}" ./build/bench/bench_parallel \
    --benchmark_min_time=0.01 >/dev/null

  echo "=== document-store fault matrix (IoFaultInjector modes) ==="
  # The FaultMatrix suite asserts mode-specific outcomes (recovery within
  # the retry budget, quarantine on truncation, deadline cuts) under each
  # injected I/O fault — including whole fn:collection scans (lenient
  # skip-and-shrink vs strict propagation, serial and partitioned); sweep
  # every mode the injector supports.
  for mode in none fail-open short-read slow-read flaky; do
    echo "--- XQC_IO_FAULT_MODE=$mode ---"
    XQC_IO_FAULT_MODE="$mode" ./build/tests/store_test \
      --gtest_filter='FaultMatrix*' --gtest_brief=1
  done

  echo "=== snapshot-tier fault matrix (XQC_SNAP_FAULT_MODE) ==="
  # The SnapshotFaultMatrix suite asserts mode-specific outcomes for the
  # persistent snapshot tier (publish failures never fail the load, read
  # corruption quarantines + reparses, slow publishes still land) under
  # each snapshot-path injector mode; the none/slow rows double as the
  # happy-path write/reuse check.
  for mode in none snap-short-write snap-fsync snap-rename snap-bitflip \
      snap-slow-write; do
    echo "--- XQC_SNAP_FAULT_MODE=$mode ---"
    XQC_SNAP_FAULT_MODE="$mode" ./build/tests/store_test \
      --gtest_filter='SnapshotFaultMatrix*' --gtest_brief=1
  done

  echo "=== snapshot crash-recovery smoke (kill -9 mid-publish) ==="
  # SIGKILL inside the widened publish window: no torn snapshot may be
  # published, and the next process must recover transparently.
  scripts/crash_snapshot.sh build/examples/xqc_shell

  echo "=== snapshot cold-start bench smoke (bench_store_cold) ==="
  # A scaled-down pass of scripts/bench_store.sh: cross-checks reparse vs
  # snapshot-rebuild node counts and that every timed re-open actually hit
  # the snapshot tier; exits non-zero on divergence.
  XQC_SCALE=0.1 XQC_STORE_BENCH_REPS=3 \
    XQC_STORE_BENCH_OUT=build/BENCH_store_smoke.json \
    ./build/bench/bench_store_cold >/dev/null

  echo "=== overload chaos smoke (bench_service, short run) ==="
  # A short sustained-load pass through the whole overload-resilience
  # stack (per-tenant quotas, fair dequeue, shedding, circuit breaker,
  # composed I/O + guard fault injection). The harness asserts its own
  # invariants — no deadlock, explicit fast rejection codes, bounded
  # accepted p99, breaker open + recovery — and exits non-zero on any
  # violation. scripts/bench_service.sh runs the full-length version.
  XQC_CHAOS_MS="${XQC_CHAOS_SMOKE_MS:-2000}" \
    XQC_CHAOS_OUT=build/BENCH_service_smoke.json ./build/bench/bench_service

  echo "=== HTTP net-fault matrix (XQC_NET_FAULT_MODE) ==="
  # The HttpEnvFault suite drives live query round-trips under each
  # socket-level fault mode (accept failures, short writes, stalled
  # reads, mid-response closes, 1-byte/10ms slow clients) and asserts
  # mode-specific outcomes plus a bounded clean shutdown; sweep every
  # mode the injector supports. The full adversarial corpus in http_test
  # already ran under ctest above (and runs again under ASan below).
  for mode in none accept-fail short-write stalled-read mid-response-close \
      slow-client; do
    echo "--- XQC_NET_FAULT_MODE=$mode ---"
    XQC_NET_FAULT_MODE="$mode" ./build/tests/http_test \
      --gtest_filter='HttpEnvFault*' --gtest_brief=1
  done

  echo "=== HTTP chaos smoke (bench_service --http, short run) ==="
  # The overload chaos harness driven through a real socket: flooding
  # tenant, malformed-frame vandal, cold-vs-hot plan-cache timing, the
  # --no-plan-cache ablation byte-identity check, and a timed drain. The
  # harness asserts its own invariants and exits non-zero on violation.
  # scripts/bench_service.sh --http runs the full-length version.
  XQC_CHAOS_MS="${XQC_CHAOS_SMOKE_MS:-2000}" \
    XQC_HTTP_OUT=build/BENCH_http_smoke.json ./build/bench/bench_service --http

  echo "=== real-binary HTTP smoke (xqc_httpd + curl + SIGTERM drain) ==="
  # Boot the actual server binary, drive it over the wire with curl, and
  # SIGTERM it with a request in flight: crash-only drain, exit 0.
  scripts/http_smoke.sh build/examples/xqc_httpd
fi

echo "=== sanitized build + tests (build-asan/, address+undefined) ==="
# The whole ctest suite, construct_test included: constructor copy elision
# moves nodes between trees, so a node adopted while something still
# references it shows up here as a use-after-free.
cmake -B build-asan -S . -DXQC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
(
  ulimit -s 262144 2>/dev/null || echo "warning: could not raise stack limit"
  cd build-asan && ctest --output-on-failure -j "$JOBS"
)

echo "=== thread-sanitized build + tests (build-tsan/) ==="
# TSan can't combine with ASan, so it gets its own tree. Run the suites
# that exercise real parallelism (concurrency_test, service_test's tenant
# queue/shedding bookkeeping, the concurrent property oracle, the
# DocumentStore singleflight/eviction/quarantine/breaker stress in
# store_test, the partitioned execution's shared join builds, guard slices
# and shared TaskPool in parallel_test, and the
# HTTP event loop's handoff to the worker pool —
# completions queue, self-pipe wakeups, drain races — in http_test) plus
# the guard and streaming suites whose machinery (cancellation tokens,
# ScopedGuard, ResultStream) the threaded paths lean on, and construct_test,
# whose collection scans adopt constructed nodes inside partition workers.
# concurrency_test runs whole: its mid-stream cancellation test streams
# `for $x in 1 to 100000000` on demand, and the binary peaks at ~130 MB
# RSS under TSan.
cmake -B build-tsan -S . -DXQC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target \
  concurrency_test service_test property_test guard_test streaming_test \
  store_test parallel_test http_test construct_test
(
  ulimit -s 262144 2>/dev/null || echo "warning: could not raise stack limit"
  cd build-tsan && ctest --output-on-failure -j "$JOBS" \
    -R 'concurrency_test|service_test|property_test|guard_test|streaming_test|store_test|parallel_test|http_test|construct_test'
)

echo "=== all checks passed ==="
