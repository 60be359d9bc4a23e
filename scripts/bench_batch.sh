#!/usr/bin/env bash
# Runs the batched-iterator-execution benchmarks (bench/bench_batch.cc)
# and writes the results to BENCH_batch.json at the repo root. Each query
# is swept over batch_size {1, 8, 64, 256, 1024}; batch=1 pulls one tuple
# per call through the same operator code, so the per-tuple overhead
# reduction is the Batch/1 vs Batch/1024 time ratio.
#
# Usage: scripts/bench_batch.sh [extra benchmark flags...]
#   XQC_SCALE=<float>  scales document sizes (see bench/bench_util.h)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target bench_batch

./build/bench/bench_batch \
  --benchmark_out=BENCH_batch.json \
  --benchmark_out_format=json \
  --benchmark_repetitions="${XQC_BENCH_REPS:-1}" \
  "$@"

echo "wrote BENCH_batch.json"
