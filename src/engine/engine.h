// xqc public API: the complete algebraic XQuery engine.
//
// A query is prepared once (parse -> normalize to Core -> compile to the
// Table 1 algebra -> Figure 5 rewritings) and can then be executed against
// any dynamic context. Engine options select the paper's evaluation
// configurations:
//
//   use_algebra=false                      "No algebra" (Table 3 row 1)
//   use_algebra, optimize=false            "Algebra + No optim"
//   optimize, join=kNestedLoop             "Optim + nested-loop joins"
//   optimize, join=kHash (default)         "Optim + XQuery joins"
//
// Orthogonally, exec_mode switches early termination in the tuple algebra:
// kStreaming (the default) lets prefix consumers stop pulling their input;
// kMaterialize computes every table in full. Both run the same iterators,
// and results are identical.
//
// Example:
//   xqc::Engine engine;
//   auto q = engine.Prepare("for $x in (1,2,3) return $x * 2");
//   xqc::DynamicContext ctx;
//   auto result = q.value().Execute(&ctx);
#ifndef XQC_ENGINE_ENGINE_H_
#define XQC_ENGINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/base/guard.h"
#include "src/compile/compiler.h"
#include "src/interp/interpreter.h"
#include "src/opt/optimizer.h"
#include "src/opt/projection_infer.h"
#include "src/runtime/eval.h"
#include "src/xquery/ast.h"

namespace xqc {

/// Execution mode for the tuple algebra. Both modes run the same batched
/// iterators (iterator.h); they differ only in early termination.
enum class ExecMode {
  /// Early-terminating consumers (fn:exists, [1] heads, fn:subsequence,
  /// quantifiers, a partly read ResultStream) stop pulling their input.
  kStreaming,
  /// Early termination off: every table is computed in full, and
  /// ExecuteStream computes the whole result up front.
  kMaterialize,
};

struct EngineOptions {
  /// false: evaluate the normalized Core AST directly (baseline).
  bool use_algebra = true;
  /// Apply the Figure 5 rewritings.
  bool optimize = true;
  /// Physical join algorithm for Join / LOuterJoin.
  JoinImpl join_impl = JoinImpl::kHash;
  /// Early termination on or off (results are identical; see
  /// ExecOptions::streaming for the error-laziness caveat).
  ExecMode exec_mode = ExecMode::kStreaming;
  /// Baseline / oracle mode: TreeJoin always sorts its output, disabling
  /// both the static DDO annotations and the runtime sort elisions.
  bool force_sort = false;
  /// Lazily build and use per-document structural indexes (doc_index.h)
  /// for descendant / following / preceding axis steps.
  bool use_doc_index = true;
  /// Resolve fn:doc through the shared DocumentStore (bounded LRU cache,
  /// singleflight loading, retry, quarantine — src/store). Off = oracle
  /// ablation: every execution parses documents directly from disk.
  bool use_doc_store = true;
  /// Allow loads to use the store's persistent snapshot tier (a no-op
  /// unless the store has a snapshot_dir). Off = oracle ablation
  /// (xqc_shell --no-snapshots): every cold load re-parses the source,
  /// which must produce byte-identical results.
  bool use_snapshots = true;
  /// Tuples moved per batch through the iterators by full consumers
  /// (ExecOptions::batch_size). 1 = the demand-bound oracle; larger
  /// values amortize virtual dispatch and guard checks while producing
  /// byte-identical results, identical ExecStats counters, and identical
  /// guard trip points. Values < 1 are treated as 1. Ignored by the
  /// interpreter.
  int batch_size = 1024;
  /// Maximum concurrent partitions for intra-query parallelism
  /// (xqc_shell --parallelism). 1 (default) = strictly serial, the
  /// byte-identical oracle; serving defaults higher (ServingEngineOptions
  /// in src/service/query_service.h). With N > 1, eligible plans
  /// (src/opt/parallel_infer.h) are partitioned by contiguous ranges of
  /// their split's source — a collection's member documents or a driving
  /// scan's rows — against join build sides built once and shared.
  /// Partitions recombine by ordered concatenation
  /// (src/runtime/parallel.h). Output is byte-identical to the serial run
  /// at every N, and the summed ExecStats work counters match it;
  /// ineligible plans, and eligible ones too small to pay for the
  /// fan-out, run serially (ExecStats::parallel_fallbacks). Values < 1 are
  /// treated as 1.
  int parallelism = 1;
  /// Strict fn:collection mode: any member document failure fails the
  /// whole collection scan. Default (lenient) skips quarantined /
  /// malformed / vanished members (see DynamicContext::ResolveCollection).
  bool strict_collections = false;
  /// Resource limits enforced during Execute / ExecuteStream (0 fields are
  /// unlimited). Trips surface as Status::ResourceExhausted with the
  /// XQC00xx codes in src/base/guard.h.
  GuardLimits limits = {};
  /// Cooperative cancellation: create with CancellationToken::Make(), keep
  /// a copy, and call RequestCancel() from any thread. The running query
  /// fails with XQC0002 at its next guard check.
  CancellationToken cancel = {};
  /// Deterministic guard fault injection (tests only).
  GuardFaultInjector fault_injector = {};
};

/// An incrementally pulled query result (PreparedQuery::ExecuteStream).
/// Holds the executing plan; the DynamicContext passed to ExecuteStream
/// must outlive it. Pulling fewer items than the full result leaves the
/// unconsumed remainder unevaluated in streaming mode.
class ResultStream {
 public:
  /// Produces the next result item. Returns false at end of stream.
  Result<bool> Next(Item* out);

  /// Pulls and returns every remaining item.
  Result<Sequence> Drain();

  /// Statistics accumulated so far (partial until the stream ends).
  const ExecStats& stats() const;

 private:
  friend class PreparedQuery;
  ResultStream() = default;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// A compiled, optimized, executable query.
///
/// Threading contract (see DESIGN.md "Threading model"): a PreparedQuery is
/// immutable after Prepare and may be shared freely — Execute /
/// ExecuteToString / ExecuteStream may be called concurrently from any
/// number of threads, each with its own DynamicContext. The DynamicContext
/// and ResultStream themselves are single-thread objects.
class PreparedQuery {
 public:
  /// Evaluates against a dynamic context (documents, schema, variables).
  Result<Sequence> Execute(DynamicContext* ctx) const;

  /// Evaluates with per-execution guard configuration overriding the
  /// limits/cancellation baked in at Prepare time. This is the serving
  /// layer's entry point: one shared immutable plan, per-request budgets
  /// and a per-request cancellation token.
  Result<Sequence> Execute(DynamicContext* ctx, const GuardLimits& limits,
                           CancellationToken cancel,
                           const GuardFaultInjector& injector = {}) const;

  /// Evaluates and serializes the result.
  Result<std::string> ExecuteToString(DynamicContext* ctx) const;

  /// Opens a pull-based result cursor. With ExecMode::kStreaming and an
  /// algebraic plan the result is computed on demand; otherwise the full
  /// result is computed here and buffered behind the same interface.
  Result<ResultStream> ExecuteStream(DynamicContext* ctx) const;

  /// The (optimized, if enabled) algebraic plan in the paper's notation.
  std::string ExplainPlan(bool pretty = true) const;
  /// The plan before optimization.
  std::string ExplainUnoptimizedPlan(bool pretty = true) const;

  const CompiledQuery& compiled() const { return *compiled_; }
  const Query& core() const { return *core_; }
  const OptimizerStats& optimizer_stats() const { return opt_stats_; }
  /// Statistics from the most recent completed Execute call (by any thread;
  /// copies of a PreparedQuery share one stats slot). Returned by value —
  /// concurrent executors publish whole snapshots under a lock, so a reader
  /// never observes a half-written ExecStats.
  ExecStats last_exec_stats() const {
    std::lock_guard<std::mutex> lock(exec_stats_->mu);
    return exec_stats_->stats;
  }

  /// Static projection analysis (TreeProject paths per document variable);
  /// apply with ProjectTree to shrink input documents before Execute.
  ProjectionAnalysis InferProjection() const {
    return InferProjectionPaths(*parsed_);
  }

 private:
  friend class Engine;
  std::shared_ptr<Query> parsed_;            // surface AST (projection)
  std::shared_ptr<Query> core_;              // normalized Core (interpreter)
  std::shared_ptr<CompiledQuery> compiled_;  // optimized plan
  std::shared_ptr<CompiledQuery> unoptimized_;
  EngineOptions options_;
  OptimizerStats opt_stats_;
  /// Shared across copies; written once per execution under the mutex so
  /// concurrent Execute calls on a shared plan don't race (the last writer
  /// wins, as "most recent" implies).
  struct SyncStats {
    std::mutex mu;
    ExecStats stats;
  };
  std::shared_ptr<SyncStats> exec_stats_ = std::make_shared<SyncStats>();
};

/// Stateless facade over the compilation pipeline. Immutable after
/// construction; Prepare/Execute are const and safe to call concurrently
/// from any number of threads (each Prepare returns an independent
/// PreparedQuery).
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineOptions options) : options_(options) {}

  /// Parses, normalizes, compiles, and optimizes a query module.
  Result<PreparedQuery> Prepare(const std::string& query_text) const;
  Result<PreparedQuery> Prepare(const std::string& query_text,
                                const EngineOptions& options) const;

  /// One-shot convenience: prepare + execute + serialize.
  Result<std::string> Execute(const std::string& query_text,
                              DynamicContext* ctx) const;

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
};

}  // namespace xqc

#endif  // XQC_ENGINE_ENGINE_H_
