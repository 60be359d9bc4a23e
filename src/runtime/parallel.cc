#include "src/runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

namespace xqc {

// ---- TaskPool ---------------------------------------------------------------

TaskPool* TaskPool::Global() {
  // Created on first use, deliberately never destroyed: helpers may belong
  // to any thread's query at process exit, and joining them from a static
  // destructor would race other static teardown.
  static TaskPool* pool = new TaskPool(GlobalThreads());
  return pool;
}

int TaskPool::GlobalThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 2 ? static_cast<int>(hw - 1) : 2;
}

TaskPool::TaskPool(int threads) {
  if (threads < 1) threads = 1;
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; i++) {
    threads_.emplace_back([this] { Loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool TaskPool::TrySubmit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Accept only when an idle helper is not already spoken for by a
    // queued task — so a task never sits waiting behind busy helpers,
    // and the pool cannot become a dependency cycle.
    if (stop_ || idle_ <= static_cast<int>(queue_.size())) return false;
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
  return true;
}

void TaskPool::Loop() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_++;
  while (true) {
    cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (!queue_.empty()) {
      std::function<void()> fn = std::move(queue_.front());
      queue_.pop_front();
      idle_--;
      lk.unlock();
      fn();
      lk.lock();
      idle_++;
    } else if (stop_) {
      idle_--;
      return;
    }
  }
}

// ---- partitioned execution --------------------------------------------------

namespace {

std::mutex g_unit_hook_mu;
UnitHook g_unit_hook;

/// a += k * b, field by field, of a partition's evaluator stats (k = -1
/// deducts a unit's fixed cost). guard_* and peak_memory are
/// published from the parent guard by the engine, after recombination
/// re-charges it.
void MergeExecStats(ExecStats* a, const ExecStats& b, int64_t k = 1) {
  a->hash_joins += k * b.hash_joins;
  a->sort_joins += k * b.sort_joins;
  a->range_joins += k * b.range_joins;
  a->nested_loop_joins += k * b.nested_loop_joins;
  a->group_bys += k * b.group_bys;
  a->composite_joins += k * b.composite_joins;
  a->nodes_copied += k * b.nodes_copied;
  a->nodes_adopted += k * b.nodes_adopted;
  a->join_index_reuses += k * b.join_index_reuses;
  a->specialized_joins += k * b.specialized_joins;
  a->source_tuples += k * b.source_tuples;
  a->streaming_early_stops += k * b.streaming_early_stops;
  a->tree_join.Add(b.tree_join, k);
  a->doc_store.Add(b.doc_store, k);
  a->parallel_partitions += k * b.parallel_partitions;
  a->parallel_steals += k * b.parallel_steals;
  a->parallel_fallbacks += k * b.parallel_fallbacks;
}

/// One partition of the plan: a contiguous range of the split's source
/// (member documents or driving rows).
struct Unit {
  Sequence items;
  Result<Sequence> result{Sequence{}};
  ExecStats stats;
  int64_t guard_steps = 0;
  int64_t guard_mem = 0;
  bool stolen = false;  // ran on a pool helper, not the driver
};

/// State shared between the driver and pool helpers. Owned by shared_ptr:
/// a helper that wakes up after the last unit was claimed may still touch
/// `next`/`units` after the driver has moved on — and the join builds stay
/// alive until the last unit that can reach them is gone.
struct Shared {
  const CompiledQuery* query = nullptr;
  const DynamicContext* parent_ctx = nullptr;
  EngineOptions options;
  std::unordered_map<Symbol, Sequence> globals;
  const Op* split = nullptr;   // what every unit evaluates
  const Op* source = nullptr;  // the op a unit's slice replaces
  std::unordered_map<const Op*, JoinBuild> builds;
  GuardLimits unit_limits;
  CancellationToken abort;
  std::vector<Unit> units;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
};

/// Evaluates one unit on the calling thread with its own guard slice: the
/// parent's remaining budgets plus the shared abort token. Private
/// counters; re-charged to the parent on recombine.
void RunUnit(const Shared& sh, Unit* u) {
  QueryGuard guard(sh.unit_limits, sh.abort);
  DynamicContext wctx;
  wctx.SeedFrom(*sh.parent_ctx);
  wctx.set_guard(&guard);
  PlanEvaluator ev(sh.query, &wctx, sh.options);
  ev.SeedGlobals(sh.globals);
  if (!sh.builds.empty()) ev.SeedJoinBuilds(&sh.builds);
  PartitionSlice slice;
  slice.source = sh.source;
  slice.items = u->items;
  ev.set_partition_slice(&slice);
  u->result = ev.EvalItems(*sh.split, EvalCtx{});
  u->stats = ev.stats();
  u->stats.doc_store.Add(wctx.doc_store_stats());
  u->guard_steps = guard.steps_taken();
  u->guard_mem = guard.peak_memory_bytes();
}

/// Claims and runs units until the queue is empty (used by both the driver
/// and the helpers; the atomic counter is the only scheduler).
void DrainUnits(const std::shared_ptr<Shared>& sh, bool on_helper) {
  while (true) {
    size_t i = sh->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= sh->units.size()) return;
    Unit& u = sh->units[i];
    u.stolen = on_helper;
    UnitHook hook;
    {
      std::lock_guard<std::mutex> lk(g_unit_hook_mu);
      hook = g_unit_hook;
    }
    if (hook) hook(i);
    RunUnit(*sh, &u);
    if (!u.result.ok() && u.result.status().code() != kGuardCancelledCode) {
      // First real error wins: cancel the sibling partitions. Cancellation
      // echoes (XQC0002 from this very token) must not re-cancel — they
      // are a consequence, not a cause.
      sh->abort.RequestCancel();
    }
    {
      std::lock_guard<std::mutex> lk(sh->mu);
      sh->done++;
    }
    sh->cv.notify_all();
  }
}

/// Shared state for `units`, with guard slices carved from the parent's
/// remaining budgets at this point of the execution.
std::shared_ptr<Shared> MakeShared(const CompiledQuery& query,
                                   const DynamicContext* ctx,
                                   const EngineOptions& options,
                                   const PlanEvaluator& driver,
                                   QueryGuard* parent) {
  auto sh = std::make_shared<Shared>();
  sh->query = &query;
  sh->parent_ctx = ctx;
  sh->options = options;
  sh->globals = driver.globals();
  // Linked to the caller's token: a caller-side RequestCancel reaches the
  // worker guards directly (even while every thread, driver included, is
  // busy inside a partition), while a partition error cancels only the
  // sibling partitions via sh->abort's own flag.
  sh->abort = CancellationToken::MakeLinked(parent->cancel_token());
  const GuardLimits& pl = parent->limits();
  if (pl.deadline_ms > 0) {
    sh->unit_limits.deadline_ms =
        std::max<int64_t>(1, parent->remaining_deadline_ms());
  }
  if (pl.max_memory_bytes > 0) {
    sh->unit_limits.max_memory_bytes = std::max<int64_t>(
        1, pl.max_memory_bytes - parent->peak_memory_bytes());
  }
  if (pl.max_eval_steps > 0) {
    sh->unit_limits.max_eval_steps =
        std::max<int64_t>(1, pl.max_eval_steps - parent->steps());
  }
  return sh;
}

/// Runs the units on the driver thread plus up to `parallelism - 1` pool
/// helpers, and waits for all of them, propagating parent-guard trips
/// (cancellation, deadline) to the workers within ~1ms.
void FanOut(const std::shared_ptr<Shared>& sh, QueryGuard* parent,
            size_t parallelism) {
  size_t helpers = std::min(sh->units.size() - 1, parallelism - 1);
  for (size_t i = 0; i < helpers; i++) {
    // Best-effort: a busy pool just means the driver does more units
    // itself. Never blocks, never deadlocks.
    if (!TaskPool::Global()->TrySubmit([sh] { DrainUnits(sh, true); })) break;
  }
  DrainUnits(sh, /*on_helper=*/false);
  std::unique_lock<std::mutex> lk(sh->mu);
  while (sh->done < sh->units.size()) {
    sh->cv.wait_for(lk, std::chrono::milliseconds(1));
    if (!parent->CheckNow().ok()) sh->abort.RequestCancel();
  }
}

/// Recombines the finished units into *total and the merged output:
/// re-charges each unit's guard usage to the parent in unit order — minus
/// `overhead` for every unit after the first, the fixed cost each unit pays
/// once and the serial run pays once in all — so the parent's cumulative
/// step/memory totals and its XQC0003/XQC0006 trip points track the serial
/// run's; picks the first error by unit order; and concatenates outputs in
/// unit order.
Result<Sequence> Recombine(Shared* sh, QueryGuard* parent,
                           const Unit& overhead, ExecStats* total) {
  Status final_status = parent->CheckNow();
  for (size_t i = 0; i < sh->units.size(); i++) {
    const Unit& u = sh->units[i];
    int64_t k = i == 0 ? 0 : 1;
    MergeExecStats(total, u.stats);
    MergeExecStats(total, overhead.stats, -k);
    if (final_status.ok()) {
      Status s = parent->CheckSteps(u.guard_steps - k * overhead.guard_steps);
      int64_t mem = u.guard_mem - k * overhead.guard_mem;
      if (s.ok() && mem > 0) s = parent->AccountMemory(mem);
      if (!s.ok()) final_status = s;
    }
    total->parallel_partitions++;
    if (u.stolen) total->parallel_steals++;
  }

  if (final_status.ok()) {
    // First error wins, by unit order — the serial run would have failed
    // on the earliest erroring partition. Cancellation echoes from the
    // shared abort token lose to the real error that caused them.
    const Status* first_any = nullptr;
    for (const Unit& u : sh->units) {
      if (u.result.ok()) continue;
      if (first_any == nullptr) first_any = &u.result.status();
      if (u.result.status().code() != kGuardCancelledCode) {
        final_status = u.result.status();
        break;
      }
    }
    if (final_status.ok() && first_any != nullptr) final_status = *first_any;
  }
  if (!final_status.ok()) return final_status;

  // Units cover contiguous, increasing ranges of the source, so the merge
  // is an ordered concatenation.
  Sequence out;
  size_t n = 0;
  for (const Unit& u : sh->units) n += u.result.value().size();
  out.reserve(n);
  for (Unit& u : sh->units) {
    Sequence& part = u.result.value();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

/// How many units to cut `source` into; fewer than two means the driver
/// finishes serially.
size_t UnitCount(const ParallelPlanInfo& info, const Sequence& source,
                 size_t parallelism) {
  size_t most = parallelism * kUnitsPerThread;
  if (info.by_document) {
    for (const Item& it : source) {
      if (!it.IsNode()) return 0;
    }
    return std::min(source.size(), most);
  }
  // A chain with fewer joins does too little work per row to pay for a
  // fan-out (EXPERIMENTS.md, "Driving-scan split").
  if (info.builds.size() < kMinJoinsPerSplit) return 0;
  return std::min(most, source.size() / kMinRowsPerUnit);
}

}  // namespace

void SetUnitHookForTest(UnitHook hook) {
  std::lock_guard<std::mutex> lk(g_unit_hook_mu);
  g_unit_hook = std::move(hook);
}

bool TryExecuteParallel(const CompiledQuery& query, DynamicContext* ctx,
                        const EngineOptions& options, ExecStats* stats,
                        Result<Sequence>* result) {
  const ParallelPlanInfo& info = query.parallel;
  if (!info.eligible || options.parallelism < 2) return false;
  const size_t parallelism = static_cast<size_t>(options.parallelism);
  QueryGuard* parent = ctx->guard();
  if (parent == nullptr) parent = UnlimitedGuard();
  // Start the pool before the driver's serial prefix, so that a process's
  // first parallel query finds its helpers idle by the time it fans out.
  TaskPool::Global();
  PlanEvaluator driver(&query, ctx, options);
  ExecStats units_total;
  PartitionSlice hook;
  hook.source = info.split;
  hook.run = [&]() -> Result<Sequence> {
    // Everything before the split — prolog globals, siblings of the split
    // under the root constructors — has run on the driver in serial order.
    XQC_ASSIGN_OR_RETURN(Sequence source,
                         driver.EvalItems(*info.source, EvalCtx{}));
    size_t nunits = UnitCount(info, source, parallelism);
    if (nunits < 2) {
      // Finish serially over the source already evaluated, so it is
      // charged once.
      units_total.parallel_fallbacks = 1;
      PartitionSlice scan;
      scan.source = info.source;
      scan.items = std::move(source);
      driver.set_partition_slice(&scan);
      Result<Sequence> r = driver.EvalItems(*info.split, EvalCtx{});
      driver.set_partition_slice(nullptr);
      return r;
    }
    // The join right sides and their Figure 6 indexes: built once, in the
    // serial run's order (innermost first), shared read-only by the units.
    std::unordered_map<const Op*, JoinBuild> builds;
    for (const Op* j : info.builds) {
      XQC_ASSIGN_OR_RETURN(JoinBuild b, driver.BuildJoin(*j, EvalCtx{}));
      builds.emplace(j, std::move(b));
    }
    std::shared_ptr<Shared> sh =
        MakeShared(query, ctx, options, driver, parent);
    sh->split = info.split;
    sh->source = info.source;
    sh->builds = std::move(builds);
    sh->units.resize(nunits);
    for (size_t i = 0; i < nunits; i++) {
      size_t b = source.size() * i / nunits;
      size_t e = source.size() * (i + 1) / nunits;
      sh->units[i].items.assign(source.begin() + static_cast<ptrdiff_t>(b),
                                source.begin() + static_cast<ptrdiff_t>(e));
    }
    // Every unit runs the split once (its checks, end-of-stream steps, one
    // execution per GroupBy); the serial run does that once in all. A unit
    // over an empty range measures exactly that fixed cost.
    Unit overhead;
    RunUnit(*sh, &overhead);
    if (!overhead.result.ok()) return overhead.result.status();
    // Not so for the path steps of a document cut: each unit runs them
    // once, and how a step discharges DDO depends on its input (a unit's
    // documents sort or verify where the empty unit counts a singleton
    // skip). Those counters report what the units did.
    overhead.stats.tree_join = TreeJoinStats{};
    FanOut(sh, parent, parallelism);
    return Recombine(sh.get(), parent, overhead, &units_total);
  };
  driver.set_partition_slice(&hook);
  Result<Sequence> r = driver.Run();
  ExecStats s = driver.stats();
  MergeExecStats(&s, units_total);
  *stats = std::move(s);
  *result = std::move(r);
  return true;
}

}  // namespace xqc
