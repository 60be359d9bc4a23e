// Intra-query parallelism: partitioned execution of eligible plans with an
// order-preserving recombination (DESIGN.md "Intra-query parallelism").
//
// The parallel executor takes a plan that AnalyzeParallel (src/opt/
// parallel_infer.h) marked eligible and cuts it in one way. The driver runs
// the plan itself; when it reaches the split op it evaluates the split's
// source once — a collection's member documents or a driving scan's rows —
// builds every join's right side and Figure 6 index once, and cuts the
// source into contiguous ranges:
//
//   * documents: min(ndocs, kUnitsPerThread per thread) units, each of one
//     or more whole member documents;
//   * rows: at most kUnitsPerThread units per thread of at least
//     kMinRowsPerUnit rows each, and only for chains with at least
//     kMinJoinsPerSplit joins: with fewer, the per-row work is too small.
//
// Fewer than two units (one document, too few rows or joins, a member that
// is not a node): the driver finishes serially over the source it already
// has (ExecStats::parallel_fallbacks). Otherwise:
//
//   1. each unit is an independent evaluation of the split over its range
//      (a PartitionSlice, runtime/eval.h) against the shared, read-only
//      builds, run on a process-wide TaskPool shared by every parallel
//      query (QueryService traffic included); the driver thread always
//      participates, so progress never depends on pool capacity, and it
//      keeps the builds alive until every unit is done, so no unit ever
//      sees a build table as unshared (construct.h adoption, Tuple::Take),
//   2. each unit gets a guard slice: a private QueryGuard carrying the
//      parent's *remaining* deadline / memory / step budgets plus a shared
//      abort token — the first real error (or a parent-guard trip observed
//      by the driver, which polls every millisecond while waiting) cancels
//      the siblings, and
//   3. recombination re-charges per-unit guard usage to the parent in unit
//      order (so XQC0003/XQC0006 trips fire just like the serial run) and
//      concatenates unit outputs in unit order. Every unit pays the split's
//      fixed cost (its checks, end-of-stream steps, one execution per
//      GroupBy) that the serial run pays once; a unit over an empty range
//      measures it and recombination deducts it from every unit but the
//      first, so the summed ExecStats and guard steps equal the serial
//      run's.
//
// The merge is an ordered concatenation: every operator of the split maps
// the concatenation of the units' ranges to the concatenation of their
// outputs (parallel_infer.h), which is what makes `--parallelism N`
// byte-identical to the serial oracle at every N.
#ifndef XQC_RUNTIME_PARALLEL_H_
#define XQC_RUNTIME_PARALLEL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/compile/compiler.h"
#include "src/runtime/eval.h"

namespace xqc {

/// A small process-wide helper-thread pool. Submission is strictly
/// best-effort: TrySubmit enqueues only when an idle helper is available to
/// take the task, and never blocks — callers must be prepared to do the
/// work themselves (the parallel driver always drains its own unit queue).
/// This makes the pool deadlock-free under arbitrary nesting: no task ever
/// waits for pool capacity.
class TaskPool {
 public:
  /// The shared pool (max(2, hardware_concurrency - 1) helpers, created on
  /// first use, never destroyed). Shared by all parallel queries in the
  /// process, including those running on QueryService worker threads.
  static TaskPool* Global();
  /// The number of helpers Global() has (or will have when created).
  static int GlobalThreads();

  explicit TaskPool(int threads);
  ~TaskPool();

  /// Hands `fn` to an idle helper. Returns false — without running or
  /// retaining `fn` — when every helper is busy or claimed.
  bool TrySubmit(std::function<void()> fn);

  int threads() const { return static_cast<int>(threads_.size()); }

 private:
  void Loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  int idle_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// A row cut fans out only chains with at least this many joins: each
/// driving row then probes several build sides and builds nested
/// constructors. With fewer, the units' share of the query is too small
/// for the extra CPU of running concurrently (EXPERIMENTS.md,
/// "Driving-scan split").
inline constexpr size_t kMinJoinsPerSplit = 2;
/// A row cut fans out only when every unit gets at least this many driving
/// rows, so scans of fewer than 32 rows, whose whole query costs about as
/// much as a fan-out, stay serial. It is the largest value that still
/// gives N4's 150 rows two or more units per thread at parallelism 4
/// (EXPERIMENTS.md, "Driving-scan split").
inline constexpr size_t kMinRowsPerUnit = 16;
/// At most this many units per thread: per-unit work varies (N4's 150
/// authors have 1 to 15 papers each, collection members differ in size),
/// and idle helpers take the remaining small units.
inline constexpr size_t kUnitsPerThread = 4;

/// Executes a compiled plan with up to `options.parallelism` concurrent
/// partitions.
/// Requires a context with the execution guard already installed (the
/// engine's ScopedGuard). Returns false, having evaluated nothing, when the
/// plan is statically ineligible or parallelism < 2: the caller then runs
/// the normal serial path. Otherwise `*result` and `*stats` are complete,
/// including when the driver decided at runtime to finish serially (fewer
/// than two units; counted in ExecStats::parallel_fallbacks).
bool TryExecuteParallel(const CompiledQuery& query, DynamicContext* ctx,
                        const EngineOptions& options, ExecStats* stats,
                        Result<Sequence>* result);

/// Tests only: called with the unit's index just before each queued unit
/// runs, on the thread that runs it (schedule tests delay a unit so it
/// finishes last). An empty hook removes it.
using UnitHook = std::function<void(size_t unit)>;
void SetUnitHookForTest(UnitHook hook);

}  // namespace xqc

#endif  // XQC_RUNTIME_PARALLEL_H_
