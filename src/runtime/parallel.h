// Intra-query parallelism: partitioned execution of eligible plans with an
// order-preserving recombination (DESIGN.md "Intra-query parallelism").
//
// The parallel executor takes a plan that AnalyzeParallel (src/opt/
// parallel_infer.h) marked eligible and cuts it into units in one of two
// ways:
//
//   * Collection mode (shapes A and B): a pointwise pipeline over a
//     Call[fn:collection] scan. The driver resolves the collection once
//     (so enumeration / load errors surface exactly as in the serial run)
//     and partitions the member documents into contiguous ordinal ranges —
//     and, when there are fewer documents than requested threads and the
//     plan allows it, splits large documents further by pre-order interval
//     ranges of the single downward TreeJoin's output. Each unit runs the
//     whole plan.
//   * Driving-scan mode (shape C): a flat Join / LOuterJoin / GroupBy
//     chain under a MapToItem split point, driven by one IN-free scan. The
//     driver runs the plan itself; when it reaches the split it evaluates
//     the driving scan once, builds every join's right side and Figure 6
//     index once, and cuts the scan's rows into contiguous ranges of at
//     least kMinRowsPerUnit rows (kUnitsPerThread per thread at most). A
//     chain with fewer than kMinJoinsPerSplit joins stays serial: its
//     per-row work is too small. Each
//     unit runs the split MapToItem over its range against the shared,
//     read-only builds; the driver keeps the builds alive until every unit
//     is done, so no unit ever sees a build table as unshared (construct.h
//     adoption, Tuple::Take). Too few rows: the driver finishes serially
//     over the rows it already has (ExecStats::parallel_fallbacks).
//
// Both modes then share one driver:
//
//   1. each unit is an independent plan evaluation with a PartitionSlice
//      installed (runtime/eval.h), run on a process-wide TaskPool shared by
//      every parallel query (QueryService traffic included); the driver
//      thread always participates, so progress never depends on pool
//      capacity,
//   2. each unit gets a guard slice: a private QueryGuard carrying the
//      parent's *remaining* deadline / memory / step budgets plus a shared
//      abort token — the first real error (or a parent-guard trip observed
//      by the driver, which polls every millisecond while waiting) cancels
//      the siblings, and
//   3. recombination re-charges per-unit guard usage to the parent in unit
//      order (so XQC0003/XQC0006 trips fire just like the serial run) and
//      concatenates unit outputs in unit order. A driving-scan unit pays
//      the chain's fixed cost (the split's check, end-of-stream steps, one
//      execution per GroupBy) that the serial run pays once; a unit over no
//      rows measures it and recombination deducts it from every unit but
//      the first, so the summed ExecStats and guard steps equal the serial
//      run's.
//
// The merge is a degenerate — and therefore trivially stable — k-way merge.
// In collection mode ResolveCollection guarantees ordinal-increasing
// interval blocks and units are built over increasing (ordinal, pre-range)
// keys, so every item of unit i precedes every item of unit i+1 in document
// order. In driving-scan mode every operator of the chain maps the
// concatenation of the units' row streams to the concatenation of their
// outputs (parallel_infer.h, shape C). Either way the merge is an ordered
// concatenation, which is what makes `--parallelism N` byte-identical to
// the serial oracle at every N.
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

/// Driving-scan mode fans out only chains with at least this many joins:
/// each driving row then probes several build sides and builds nested
/// constructors. With fewer, the units' share of the query is too small
/// for the extra CPU of running concurrently (EXPERIMENTS.md,
/// "Driving-scan split").
inline constexpr size_t kMinJoinsPerSplit = 2;
/// Driving-scan mode fans out only when every unit gets at least this many
/// driving rows, so scans of fewer than 32 rows, whose whole query costs
/// about as much as a fan-out, stay serial. It is the largest value that
/// still gives N4's 150 rows two or more units per thread at parallelism
/// 4 (EXPERIMENTS.md, "Driving-scan split").
inline constexpr size_t kMinRowsPerUnit = 16;
/// Driving-scan mode cuts at most this many units per thread: per-row work
/// varies (N4's 150 authors have 1 to 15 papers each), and idle helpers
/// take the remaining small units.
inline constexpr size_t kUnitsPerThread = 4;

/// Executes an eligible compiled plan with up to `parallelism` concurrent
/// partitions. Requires: `query.parallel.eligible`, `parallelism > 1`, and
/// a context with the execution guard already installed (the engine's
/// ScopedGuard). Returns true when it handled the execution — `*result` and
/// `*stats` are complete, including the case where it decided at runtime
/// (too few units, non-node collection members) to finish serially on the
/// driver evaluator (counted in ExecStats::parallel_fallbacks). Returns
/// false only on static ineligibility, in which case nothing was evaluated
/// and the caller must run the normal serial path.
bool TryExecuteParallel(const CompiledQuery& query, DynamicContext* ctx,
                        const ExecOptions& options, int parallelism,
                        ExecStats* stats, Result<Sequence>* result);

/// Tests only: called with the unit's index just before each queued unit
/// runs, on the thread that runs it (schedule tests delay a unit so it
/// finishes last). An empty hook removes it.
using UnitHook = std::function<void(size_t unit)>;
void SetUnitHookForTest(UnitHook hook);

}  // namespace xqc

#endif  // XQC_RUNTIME_PARALLEL_H_
