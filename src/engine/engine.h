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
