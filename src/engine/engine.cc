#include "src/engine/engine.h"

#include "src/opt/consume_infer.h"
#include "src/opt/ddo_infer.h"
#include "src/opt/parallel_infer.h"
#include "src/runtime/parallel.h"
#include "src/xml/serializer.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace xqc {

Result<Sequence> PreparedQuery::Execute(DynamicContext* ctx) const {
  return Execute(ctx, options_.limits, options_.cancel,
                 options_.fault_injector);
}

Result<Sequence> PreparedQuery::Execute(
    DynamicContext* ctx, const GuardLimits& limits, CancellationToken cancel,
    const GuardFaultInjector& injector) const {
  // One guard per top-level execution. ScopedGuard installs `local` only if
  // the context has no guard yet, so a nested Execute (e.g. the buffered
  // ExecuteStream fallback below) charges the outermost query's budget.
  QueryGuard local(limits, std::move(cancel), injector);
  ScopedGuard scope(ctx, &local, options_.use_doc_store,
                    options_.use_snapshots, options_.strict_collections);
  QueryGuard* guard = ctx->guard();
  // Stats are accumulated in a local and published once at the end, so
  // concurrent Execute calls on a shared PreparedQuery never race on the
  // shared last_exec_stats slot.
  ExecStats stats;
  Result<Sequence> r = [&]() -> Result<Sequence> {
    if (!options_.use_algebra) {
      Interpreter interp(core_.get(), ctx);
      return interp.Run();
    }
    Result<Sequence> par{Sequence{}};
    if (TryExecuteParallel(*compiled_, ctx, options_, &stats, &par)) {
      return par;
    }
    PlanEvaluator eval(compiled_.get(), ctx, options_);
    Result<Sequence> inner = eval.Run();
    stats = eval.stats();
    // Parallelism asked for, but the plan is statically ineligible.
    stats.parallel_fallbacks = options_.parallelism > 1 ? 1 : 0;
    return inner;
  }();
  stats.guard_checks = guard->checks();
  stats.guard_steps = guard->steps();
  stats.peak_memory_bytes = guard->peak_memory_bytes();
  // Add (not assign): the parallel path pre-merges partition workers'
  // store counters; the context holds the driver-side ones.
  stats.doc_store.Add(ctx->doc_store_stats());
  {
    std::lock_guard<std::mutex> lock(exec_stats_->mu);
    exec_stats_->stats = stats;
  }
  if (!r.ok()) return r;
  XQC_RETURN_IF_ERROR(
      guard->AccountOutput(static_cast<int64_t>(r.value().size())));
  return r;
}

struct ResultStream::Impl {
  // Member order matters: the guard must be installed into the context
  // (scope) before PlanEvaluator caches ctx->guard() in its constructor.
  Impl(std::shared_ptr<CompiledQuery> q, DynamicContext* ctx,
       const EngineOptions& options)
      : query(std::move(q)),
        guard(options.limits, options.cancel, options.fault_injector),
        scope(ctx, &guard, options.use_doc_store, options.use_snapshots,
              options.strict_collections),
        active(ctx->guard()),
        context(ctx),
        eval(query.get(), ctx, options) {}

  std::shared_ptr<CompiledQuery> query;  // keeps the plan alive
  QueryGuard guard;                      // lives as long as the stream
  ScopedGuard scope;                     // installs guard unless one exists
  QueryGuard* active;                    // the guard actually charged
  DynamicContext* context;               // for per-execution store stats
  PlanEvaluator eval;
  bool streaming = false;
  TupleIteratorPtr iter;                 // streaming: the top tuple stream
  TupleBatch pulled;                     // streaming: the current tuple
  const Op* per_tuple = nullptr;         // streaming: MapToItem's item plan
  Sequence buf;                          // current tuple's items / full result
  size_t pos = 0;
  bool done = false;
  ExecStats buffered_stats;              // fallback (non-streaming) stats
  ExecStats stats_cache;                 // streaming: merged snapshot
};

Result<bool> ResultStream::Next(Item* out) {
  Impl& im = *impl_;
  while (im.pos >= im.buf.size()) {
    if (!im.streaming || im.done) return false;
    // The incremental cursor always pulls one tuple at a time, whatever
    // EngineOptions::batch_size says: its demand is one tuple, and
    // prefetching a batch here would evaluate input a caller that stops
    // early never asked for (and delay cancellation by a batch).
    // Unamortized check per tuple: a RequestCancel between pulls is honored
    // on the very next pull, not after kCheckInterval more steps.
    XQC_RETURN_IF_ERROR(im.active->CheckNow());
    XQC_RETURN_IF_ERROR(im.iter->NextBatch(&im.pulled, 1));
    if (im.pulled.empty()) {
      im.done = true;
      return false;
    }
    EvalCtx dc;
    dc.tuple = &im.pulled[0];
    dc.owned_tuple = &im.pulled[0];
    XQC_ASSIGN_OR_RETURN(im.buf, im.eval.EvalItems(*im.per_tuple, dc));
    im.pulled[0] = Tuple();
    im.pos = 0;
  }
  // The buffered fallback already charged the whole result in Execute().
  if (im.streaming) XQC_RETURN_IF_ERROR(im.active->AccountOutput(1));
  *out = im.buf[im.pos++];
  return true;
}

Result<Sequence> ResultStream::Drain() {
  Sequence out;
  Item item;
  while (true) {
    XQC_ASSIGN_OR_RETURN(bool has, Next(&item));
    if (!has) return out;
    out.push_back(std::move(item));
  }
}

const ExecStats& ResultStream::stats() const {
  Impl& im = *impl_;
  if (!im.streaming) return im.buffered_stats;
  im.stats_cache = im.eval.stats();
  im.stats_cache.guard_checks = im.active->checks();
  im.stats_cache.guard_steps = im.active->steps();
  im.stats_cache.peak_memory_bytes = im.active->peak_memory_bytes();
  im.stats_cache.doc_store = im.context->doc_store_stats();
  return im.stats_cache;
}

Result<ResultStream> PreparedQuery::ExecuteStream(DynamicContext* ctx) const {
  ResultStream rs;
  rs.impl_ = std::make_shared<ResultStream::Impl>(compiled_, ctx, options_);
  // Incremental pulling needs an algebraic MapToItem top: anything else
  // (interpreter mode, materializing mode, a non-tuple top plan) computes
  // the full result now and serves it from the buffer.
  if (options_.use_algebra && options_.exec_mode == ExecMode::kStreaming &&
      compiled_->plan->kind == OpKind::kMapToItem) {
    rs.impl_->streaming = true;
    XQC_RETURN_IF_ERROR(rs.impl_->eval.PrepareGlobals());
    XQC_ASSIGN_OR_RETURN(
        rs.impl_->iter,
        rs.impl_->eval.OpenTable(*compiled_->plan->inputs[0], EvalCtx{}));
    rs.impl_->per_tuple = compiled_->plan->deps[0].get();
    return rs;
  }
  XQC_ASSIGN_OR_RETURN(rs.impl_->buf, Execute(ctx));
  rs.impl_->buffered_stats = last_exec_stats();
  return rs;
}

Result<std::string> PreparedQuery::ExecuteToString(DynamicContext* ctx) const {
  XQC_ASSIGN_OR_RETURN(Sequence s, Execute(ctx));
  return SerializeSequence(s);
}

std::string PreparedQuery::ExplainPlan(bool pretty) const {
  return OpToString(*compiled_->plan, pretty);
}

std::string PreparedQuery::ExplainUnoptimizedPlan(bool pretty) const {
  return OpToString(*unoptimized_->plan, pretty);
}

Result<PreparedQuery> Engine::Prepare(const std::string& query_text) const {
  return Prepare(query_text, options_);
}

Result<std::string> Engine::Execute(const std::string& query_text,
                                    DynamicContext* ctx) const {
  XQC_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(query_text, options_));
  return q.ExecuteToString(ctx);
}

Result<PreparedQuery> Engine::Prepare(const std::string& query_text,
                                      const EngineOptions& options) const {
  // Parsing is also guarded (deadline / cancellation, checked per token) so
  // a hostile query text cannot pin the thread before execution starts.
  QueryGuard parse_guard(options.limits, options.cancel);
  XQC_ASSIGN_OR_RETURN(Query parsed, ParseXQuery(query_text, &parse_guard));
  XQC_ASSIGN_OR_RETURN(Query core, NormalizeQuery(parsed));
  HoistLeadingLets(&core);
  if (options.optimize) HoistNestedReturnBlocks(&core);

  PreparedQuery out;
  out.parsed_ = std::make_shared<Query>(std::move(parsed));
  out.options_ = options;
  out.core_ = std::make_shared<Query>(std::move(core));
  XQC_ASSIGN_OR_RETURN(CompiledQuery compiled, CompileQuery(*out.core_));
  out.unoptimized_ = std::make_shared<CompiledQuery>(compiled);
  // CompiledQuery holds shared_ptr plans; deep-copy before optimizing so
  // the unoptimized plan stays intact.
  CompiledQuery opt;
  opt.plan = CloneOp(*compiled.plan);
  for (const auto& [name, plan] : compiled.globals) {
    opt.globals.emplace_back(name, plan == nullptr ? nullptr : CloneOp(*plan));
  }
  for (const auto& [name, fn] : compiled.functions) {
    CompiledFunction f = fn;
    f.plan = CloneOp(*fn.plan);
    opt.functions.emplace(name, std::move(f));
  }
  if (options.optimize) {
    OptimizeQuery(&opt, &out.opt_stats_);
  }
  // Sound regardless of the rewritings above (runs on whatever plan shape
  // reaches execution); force_sort is honored at runtime, so annotating is
  // harmless there too.
  AnnotateDdoQuery(&opt);
  // Intra-query parallelism eligibility (consumed when EngineOptions::
  // parallelism > 1; the stored Op pointers survive the move below because
  // plans are held by shared_ptr).
  AnalyzeParallel(&opt);
  // Tuple-field reads that may hand their value over to a constructor
  // (constructor copy elision, runtime/construct.h).
  AnnotateConsumingReads(&opt);
  out.compiled_ = std::make_shared<CompiledQuery>(std::move(opt));
  return out;
}

}  // namespace xqc
