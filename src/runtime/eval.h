// The algebra evaluator: interprets Table 1 plans over the physical data
// model, with pluggable join algorithms (Section 6). Table operators run
// as pull-based iterators (iterator.h); in streaming mode, consumers that
// need only a prefix — fn:exists / fn:empty / positional heads /
// fn:subsequence / quantifiers — terminate early, and in materializing
// mode every table is computed in full.
#ifndef XQC_RUNTIME_EVAL_H_
#define XQC_RUNTIME_EVAL_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/algebra/op.h"
#include "src/compile/compiler.h"
#include "src/opt/key_class.h"
#include "src/runtime/builtins.h"
#include "src/runtime/context.h"
#include "src/runtime/iterator.h"
#include "src/runtime/tuple.h"
#include "src/types/compare.h"

namespace xqc {

/// Physical join algorithm selection (Table 3's "nested-loop joins" vs
/// "XQuery joins" configurations; Table 4's NL Join vs Hash Join columns).
enum class JoinImpl {
  kNestedLoop,  // order-preserving nested loops, any predicate
  kHash,        // Figure 6 hash join for op:general-eq predicates
  kSort,        // ordered-index (B-tree style) variant of Figure 6
};

/// Execution mode for the tuple algebra. Both modes run the same batched
/// iterators (iterator.h); they differ only in early termination.
enum class ExecMode {
  /// Early-terminating consumers (fn:exists, [1] heads, fn:subsequence,
  /// quantifiers, a partly read ResultStream) stop pulling their input.
  kStreaming,
  /// Early termination off: every table is computed in full, and
  /// ExecuteStream computes the whole result up front. Results are
  /// identical, except that streaming may skip errors in input suffixes a
  /// limited consumer never needs (permitted by XQuery's evaluation-order
  /// rules).
  kMaterialize,
};

/// The engine configuration (engine.h), read by the evaluator as it is.
struct EngineOptions {
  /// false: evaluate the normalized Core AST directly (baseline).
  bool use_algebra = true;
  /// Apply the Figure 5 rewritings.
  bool optimize = true;
  /// Physical join algorithm for Join / LOuterJoin.
  JoinImpl join_impl = JoinImpl::kHash;
  /// Early termination on or off.
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
  /// Demand of full consumers: the most tuples one NextBatch() call moves.
  /// 1 = the demand-bound oracle; larger values amortize virtual dispatch
  /// and guard checks while producing byte-identical results, identical
  /// ExecStats counters, and identical guard trip points. Values < 1 are
  /// treated as 1. Limited consumers (fn:exists, EBV prefixes,
  /// fn:subsequence, quantifiers, the ResultStream cursor) always pull one
  /// tuple at a time, so early-exit behavior and stats do not depend on
  /// it. Ignored by the interpreter.
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

/// "No limit" for the limited evaluation entry points.
inline constexpr size_t kEvalNoLimit = static_cast<size_t>(-1);

/// Execution statistics (observable by tests and benches).
struct ExecStats {
  int64_t hash_joins = 0;
  int64_t sort_joins = 0;
  int64_t range_joins = 0;  // inequality sort joins
  int64_t nested_loop_joins = 0;
  int64_t group_bys = 0;
  int64_t composite_joins = 0;     // equality indexes on >1 conjunct
  int64_t join_index_reuses = 0;   // cached inner-index hits
  int64_t specialized_joins = 0;   // statically typed key modes used
  int64_t source_tuples = 0;       // tuples produced by MapFromItem
  int64_t streaming_early_stops = 0;  // limited consumers that cut input
  int64_t guard_checks = 0;        // QueryGuard slow-path checks run
  int64_t guard_steps = 0;         // amortized eval steps credited
  int64_t peak_memory_bytes = 0;   // total guard-accounted allocation
  // Constructor content nodes (whole subtrees, construct.h): deep-copied
  // vs adopted without a copy.
  int64_t nodes_copied = 0;
  int64_t nodes_adopted = 0;
  TreeJoinStats tree_join;         // sort elisions / index use (axes.h)
  DocStoreStats doc_store;         // fn:doc resolution (document_store.h)
  // --- intra-query parallelism (runtime/parallel.h) ---
  int64_t parallel_partitions = 0;  // partition units executed
  int64_t parallel_steals = 0;      // units run by pool helpers (not driver)
  int64_t parallel_fallbacks = 0;   // parallel requested, ran serial
};

/// Evaluation context threaded through a plan: the dependent inputs (tuple
/// and/or item-sequence IN) plus the function-parameter environment.
struct EvalCtx {
  const Tuple* tuple = nullptr;
  const Sequence* items = nullptr;
  const std::unordered_map<Symbol, Sequence>* params = nullptr;
  /// The hand-over lease (construct.h): set, to the same tuple as `tuple`,
  /// only by loops that own that tuple and evaluate their dependent once
  /// for it — the MapToItem loops, the ResultStream cursor and GroupBy's
  /// pre-grouping pass. A
  /// consuming IN#f read (Op::consume) may then move the field out of the
  /// tuple (Tuple::Take). Honored only while it equals `tuple`, so context
  /// copies that rebind IN never inherit it.
  Tuple* owned_tuple = nullptr;
};

class MaterializedInner;       // joins.h: Figure 6 equality index
class MaterializedRangeInner;  // joins.h: ordered range index

/// The physical plan chosen for one Join / LOuterJoin execution: which
/// conjuncts (if any) drive an index, the prebuilt inner index, and the
/// residual conjuncts. The key analysis is static — each key's side comes
/// from the fields the two input plans bind (TableLayout), never from the
/// data — and is done once per Join op; PlanJoinStrategy then builds (or
/// reuses) the index per execution and ProbeJoinTuple probes it per left
/// tuple.
struct JoinStrategy {
  enum class Kind {
    kNestedLoop,  // full predicate per concatenated tuple
    kNoMatch,     // statically incompatible key types: nothing matches
    kEquality,    // Figure 6 hash / ordered-index equality join
    kInequality,  // range sort join
  };
  Kind kind = Kind::kNestedLoop;
  /// Key plans, pairwise: every indexable equality conjunct (one component
  /// each of the composite Figure 6 key), or the single inequality key.
  std::vector<const Op*> left_keys;
  std::vector<const Op*> right_keys;
  std::vector<KeyMode> modes;  // per equality component
  CompOp comp = CompOp::kEq;
  std::vector<const Op*> residual;  // non-key conjuncts
  std::shared_ptr<const MaterializedInner> eq_index;
  std::shared_ptr<const MaterializedRangeInner> range_index;
};

/// The build side of one Join / LOuterJoin execution: the materialized
/// right input and the physical strategy planned over it (with its
/// prebuilt index).
struct JoinBuild {
  std::shared_ptr<const Table> right;
  JoinStrategy strategy;
};

/// One partition unit's slice of a parallelized plan (runtime/parallel.cc):
/// when installed on a PlanEvaluator, EvalItems of the `source` op returns
/// `items` — the unit's member documents or driving rows — instead of
/// evaluating it; with `run` set (the driver side of a split), it returns
/// run() instead.
struct PartitionSlice {
  const Op* source = nullptr;
  Sequence items;
  std::function<Result<Sequence>()> run;
};

class PlanEvaluator {
 public:
  PlanEvaluator(const CompiledQuery* query, DynamicContext* ctx,
                const EngineOptions& options);

  /// Evaluates prolog globals (in order) and then the main plan.
  Result<Sequence> Run();

  /// Evaluates just the prolog globals (for callers that then pull the
  /// main plan incrementally through OpenTable).
  Status PrepareGlobals();

  /// Typed evaluation entry points (IN resolves per expected type).
  /// EvalTable computes IN, the single-tuple constructors, GroupBy and
  /// OrderBy itself and drains OpenTable for every other table operator.
  Result<Sequence> EvalItems(const Op& op, const EvalCtx& c);
  Result<Table> EvalTable(const Op& op, const EvalCtx& c);
  Result<Tuple> EvalTuple(const Op& op, const EvalCtx& c);

  /// Like EvalItems, but in streaming mode the caller promises it only
  /// inspects a prefix: evaluation may stop once `limit` items exist
  /// (the result can still be longer). Falls back to EvalItems when not
  /// streaming or limit is kEvalNoLimit.
  Result<Sequence> EvalItemsLimited(const Op& op, const EvalCtx& c,
                                    size_t limit);

  /// `for $x in A to B` (MapFromItem, iterator.cc): when `op` calls the
  /// op:to builtin, charges the call as EvalItems would but leaves the
  /// integers for the caller to produce on demand. nullopt: `op` is
  /// something else; evaluate it with EvalItems.
  Result<std::optional<IntegerRange>> OpenRange(const Op& op,
                                                const EvalCtx& c);

  /// Opens a pull iterator over a table-side operator (iterator.cc).
  /// The EvalCtx's pointees must outlive the iterator. GroupBy/OrderBy,
  /// IN and the single-tuple constructors materialize behind it.
  Result<TupleIteratorPtr> OpenTable(const Op& op, const EvalCtx& c);

  /// Effective boolean value of a dependent predicate on tuple `t`.
  Result<bool> EvalPredicate(const Op& pred, const Tuple& t, const EvalCtx& c);

  /// Join machinery of JoinIter (iterator.cc). BuildJoin returns the
  /// seeded build (SeedJoinBuilds) or evaluates (or fetches from cache)
  /// the inner side and plans the physical algorithm from the plan's
  /// static key analysis, building its index; ProbeJoinTuple appends all
  /// output rows for one left tuple.
  Result<JoinBuild> BuildJoin(const Op& op, const EvalCtx& c);
  Status ProbeJoinTuple(const Op& op, const JoinStrategy& strategy,
                        const EvalCtx& c, const Tuple& left,
                        const Table& right, bool outer, Table* out);

  const ExecStats& stats() const { return stats_; }
  ExecStats* mutable_stats() { return &stats_; }

  /// Installs a partition slice (see PartitionSlice). Non-owning; the
  /// slice must outlive evaluation. nullptr restores normal evaluation.
  void set_partition_slice(const PartitionSlice* slice) { slice_ = slice; }
  /// Seeds the prolog-global environment from an already-prepared driver
  /// evaluator (parallel workers must not re-evaluate globals).
  void SeedGlobals(const std::unordered_map<Symbol, Sequence>& globals) {
    globals_ = globals;
    globals_prepared_ = true;
  }
  const std::unordered_map<Symbol, Sequence>& globals() const {
    return globals_;
  }
  /// Seeds join builds prepared by another evaluator (the driver of a
  /// driving-scan split), shared read-only. Non-owning; the map must
  /// outlive evaluation. A seeded join is neither rebuilt nor counted: its
  /// counters and guard charges belong to the evaluator that built it.
  void SeedJoinBuilds(const std::unordered_map<const Op*, JoinBuild>* builds) {
    seeded_builds_ = builds;
  }
  /// The active resource guard: the context's, or a shared always-
  /// unlimited guard when none is installed (so check sites are
  /// unconditional). Never nullptr.
  QueryGuard* guard() const { return guard_; }

 private:
  /// The static part of PlanJoinStrategy (kind, keys, modes, residual),
  /// computed once per Join op and cached in join_keys_.
  const JoinStrategy& AnalyzeJoin(const Op& op);
  Result<std::shared_ptr<const Table>> MaterializeJoinRight(
      const Op& op, const EvalCtx& c, bool* cacheable);
  Result<JoinStrategy> PlanJoinStrategy(
      const Op& op, const EvalCtx& c,
      const std::shared_ptr<const Table>& right, bool right_cacheable);
  Result<Table> EvalGroupBy(const Op& op, const EvalCtx& c);
  Result<Table> EvalOrderBy(const Op& op, const EvalCtx& c);
  Result<Sequence> EvalCall(const Op& op, const EvalCtx& c);
  Result<Sequence> EvalConstructor(const Op& op, const EvalCtx& c);
  /// MapToItem: pulls input tuples on demand, stopping once `limit` items
  /// have been produced.
  Result<Sequence> EvalMapToItem(const Op& op, const EvalCtx& c,
                                 size_t limit);
  bool streaming() const {
    return options_.exec_mode == ExecMode::kStreaming;
  }
  size_t BatchSize() const {
    return options_.batch_size < 1 ? 1
                                   : static_cast<size_t>(options_.batch_size);
  }

  const CompiledQuery* query_;
  DynamicContext* ctx_;
  EngineOptions options_;
  QueryGuard* guard_;  // ctx's guard or the shared unlimited fallback
  std::unordered_map<Symbol, Sequence> globals_;
  bool globals_prepared_ = false;
  const PartitionSlice* slice_ = nullptr;
  const std::unordered_map<const Op*, JoinBuild>* seeded_builds_ = nullptr;
  ExecStats stats_;
  int depth_ = 0;

  /// Caches for IN-independent join inputs: a correlated subplan may
  /// re-execute its joins per outer tuple; the independent inner table and
  /// its Figure 6 index only need to be built once (the paper's
  /// "index-hash and B-tree index joins").
  struct CachedInner {
    std::shared_ptr<const Table> table;
    std::shared_ptr<const void> index;  // MaterializedInner, type-erased
  };
  std::unordered_map<const Op*, std::shared_ptr<const Table>> table_cache_;
  std::unordered_map<const Op*, CachedInner> inner_cache_;
  std::unordered_map<const Op*, JoinStrategy> join_keys_;
};

}  // namespace xqc

#endif  // XQC_RUNTIME_EVAL_H_
