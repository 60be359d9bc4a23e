#include "src/service/query_service.h"

#include <algorithm>
#include <chrono>

#include "src/base/strutil.h"
#include "src/runtime/parallel.h"
#include "src/xml/serializer.h"

namespace xqc {

namespace {

using Clock = std::chrono::steady_clock;

/// EWMA smoothing factor for the execution-time estimate.
constexpr double kEwmaAlpha = 0.2;
/// Byte budget for cached plans (estimates; see EstimatePlanBytes).
constexpr int64_t kPlanCacheMaxBytes = 64ll << 20;
/// Seed of the workers' retry-backoff jitter streams (fixed, so a run's
/// backoffs are reproducible).
constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

Status Overloaded(const std::string& why) {
  return Status::ResourceExhausted(kServiceOverloadedCode, why);
}

/// Request limits win field-wise; zero (unlimited) fields inherit the
/// service defaults.
GuardLimits MergeLimits(const GuardLimits& req, const GuardLimits& def) {
  GuardLimits out = req;
  if (out.deadline_ms == 0) out.deadline_ms = def.deadline_ms;
  if (out.max_memory_bytes == 0) out.max_memory_bytes = def.max_memory_bytes;
  if (out.max_output_items == 0) out.max_output_items = def.max_output_items;
  if (out.max_eval_steps == 0) out.max_eval_steps = def.max_eval_steps;
  return out;
}

/// xorshift64* — a tiny thread-private jitter source (no shared state, no
/// locking on the retry path).
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dull;
}

/// Whether a compile failure is deterministic — replaying it tomorrow
/// would produce the same verdict — and therefore safe to negative-cache.
/// Resource trips, cancellations, and I/O failures say something about
/// the moment, not the query, and must re-compile next time.
bool CompileErrorIsDeterministic(const Status& s) {
  switch (s.kind()) {
    case StatusKind::kParseError:
    case StatusKind::kXQueryError:
    case StatusKind::kNotImplemented:
      return true;
    default:
      return false;
  }
}

/// A coarse per-entry footprint estimate for the plan-cache byte budget:
/// the retained strings plus a multiple of the plan's printed size as a
/// proxy for its operator tree. Deliberately an over-approximation, like
/// the guard's memory accounting.
int64_t EstimatePlanBytes(const std::string& key, const PreparedQuery& plan) {
  return static_cast<int64_t>(key.size()) * 2 +
         static_cast<int64_t>(plan.ExplainPlan(false).size()) * 24 + 1024;
}

}  // namespace

std::string NormalizeQueryKeyText(const std::string& query_text) {
  return std::string(TrimXmlSpace(query_text));
}

int64_t JitteredBackoffMs(int64_t base_ms, uint64_t* state) {
  return base_ms + static_cast<int64_t>(
                       NextRand(state) %
                       static_cast<uint64_t>(base_ms > 0 ? base_ms : 1));
}

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)), engine_(options_.engine_options) {
  options_.num_threads = std::max(1, options_.num_threads);
  options_.max_queue = std::max<size_t>(1, options_.max_queue);
  ewma_exec_ms_ = std::max(0.0, options_.ewma_seed_ms);
  if (!options_.snapshot_dir.empty()) {
    DocumentStore* store = options_.document_store != nullptr
                               ? options_.document_store
                               : DocumentStore::Global();
    store->set_snapshot_dir(options_.snapshot_dir);
  }
  active_.resize(static_cast<size_t>(options_.num_threads));
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; i++) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Complete(Job* job, QueryResponse resp) {
  // The hook fires first so an event-loop consumer (the HTTP server) can
  // observe the response before any future-waiter races it. It may run
  // under the service mutex (fast-fail paths), so it must not call back
  // into the QueryService.
  if (job->req.on_done) job->req.on_done(resp);
  job->promise.set_value(std::move(resp));
}

void QueryService::RegisterDocument(const std::string& uri, NodePtr doc) {
  shared_docs_.emplace_back(uri, std::move(doc));
}

void QueryService::BindSharedVariable(Symbol name, Sequence value) {
  shared_vars_.emplace_back(name, std::move(value));
}

std::future<QueryResponse> QueryService::Submit(QueryRequest req) {
  auto job = std::make_unique<Job>();
  job->req = std::move(req);
  std::future<QueryResponse> future = job->promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  counters_.submitted++;
  auto fail = [&](Status status) {
    counters_.rejected++;
    QueryResponse resp;
    resp.status = std::move(status);
    resp.queue_wait_ms = ElapsedMs(job->enqueued);
    Complete(job.get(), std::move(resp));
  };
  auto reject = [&](const std::string& why) { fail(Overloaded(why)); };
  job->enqueued = Clock::now();
  if (shutdown_) {
    reject("service is shut down");
    return future;
  }

  // Per-tenant quotas: a hot tenant's burst fails fast with XQC0010
  // before it can occupy global queue capacity. A tenant without state has
  // nothing queued or running, so no quota can be exceeded.
  const std::string& tenant = job->req.tenant;
  auto tenant_it = tenants_.find(tenant);
  if (tenant_it != tenants_.end()) {
    const TenantState& ts = tenant_it->second;
    const int64_t queued = static_cast<int64_t>(ts.fifo.size());
    const bool over_queued = options_.tenant_max_queued > 0 &&
                             queued >= options_.tenant_max_queued;
    const bool over_in_flight =
        options_.tenant_max_in_flight > 0 &&
        queued + ts.running >= options_.tenant_max_in_flight;
    if (over_queued || over_in_flight) {
      counters_.tenant_rejected++;
      counters_.tenant_rejections[tenant]++;
      fail(Status::ResourceExhausted(
          kTenantOverQuotaCode,
          "tenant '" + tenant + "' over " +
              (over_queued ? "queued" : "in-flight") + " quota (" +
              std::to_string(queued) + " queued, " +
              std::to_string(ts.running) + " running)"));
      return future;
    }
  }

  // Admission-time shedding: when the predicted queue wait alone already
  // exceeds the request's end-to-end budget, admitting it only
  // manufactures a future corpse — reject it now, in microseconds.
  if (options_.predict_admission && ewma_exec_ms_ > 0) {
    GuardLimits merged = MergeLimits(job->req.limits, options_.default_limits);
    if (merged.deadline_ms > 0) {
      double predicted_wait_ms = static_cast<double>(queued_) *
                                 ewma_exec_ms_ / options_.num_threads;
      if (predicted_wait_ms > static_cast<double>(merged.deadline_ms)) {
        counters_.rejected_predicted++;
        reject("predicted queue wait " +
               std::to_string(static_cast<int64_t>(predicted_wait_ms)) +
               "ms exceeds the request deadline of " +
               std::to_string(merged.deadline_ms) + "ms");
        return future;
      }
    }
  }

  if (queued_ >= options_.max_queue && options_.admission_wait_ms > 0) {
    space_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.admission_wait_ms),
        [this] { return shutdown_ || queued_ < options_.max_queue; });
  }
  if (shutdown_ || queued_ >= options_.max_queue) {
    reject(shutdown_ ? "service is shut down"
                     : "admission queue saturated (" +
                           std::to_string(options_.max_queue) +
                           " queries queued)");
    return future;
  }
  job->token =
      job->req.cancel.live() ? job->req.cancel : CancellationToken::Make();
  EnqueueLocked(std::move(job));
  work_cv_.notify_one();
  return future;
}

void QueryService::EnqueueLocked(std::unique_ptr<Job> job) {
  TenantState& ts = tenants_[job->req.tenant];
  if (ts.fifo.empty()) rr_.push_back(job->req.tenant);
  ts.fifo.push_back(std::move(job));
  queued_++;
}

std::unique_ptr<QueryService::Job> QueryService::DequeueLocked() {
  // Round-robin across tenants with queued work; each tenant's own jobs
  // stay FIFO. A tenant with a deep backlog gets one slot per cycle, so
  // the others' shallow queues drain at the same per-tenant rate.
  std::string tenant = std::move(rr_.front());
  rr_.pop_front();
  TenantState& ts = tenants_.at(tenant);
  std::unique_ptr<Job> job = std::move(ts.fifo.front());
  ts.fifo.pop_front();
  queued_--;
  ts.running++;
  if (!ts.fifo.empty()) rr_.push_back(std::move(tenant));
  return job;
}

void QueryService::DrainQueueLocked(std::deque<std::unique_ptr<Job>>* out) {
  for (const std::string& tenant : rr_) {
    TenantState& ts = tenants_.at(tenant);
    while (!ts.fifo.empty()) {
      out->push_back(std::move(ts.fifo.front()));
      ts.fifo.pop_front();
    }
    if (ts.running == 0) tenants_.erase(tenant);
  }
  rr_.clear();
  queued_ = 0;
}

void QueryService::FinishLocked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (--it->second.running == 0 && it->second.fifo.empty()) {
    tenants_.erase(it);
  }
}

void QueryService::UpdateEwma(int64_t exec_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  double sample = static_cast<double>(exec_ms);
  ewma_exec_ms_ = ewma_exec_ms_ <= 0
                      ? sample
                      : kEwmaAlpha * sample + (1 - kEwmaAlpha) * ewma_exec_ms_;
}

double QueryService::ewma_exec_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_exec_ms_;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

size_t QueryService::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

QueryService::PlanCacheStats QueryService::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  PlanCacheStats out = plan_stats_;
  out.entries = static_cast<int64_t>(plans_.size());
  out.bytes = plan_bytes_;
  return out;
}

void QueryService::ErasePlanLocked(const std::string& key) {
  auto it = plans_.find(key);
  if (it == plans_.end() || it->second.compiling) return;
  plan_bytes_ -= it->second.bytes;
  plan_lru_.erase(it->second.lru_it);
  plans_.erase(it);
}

int64_t QueryService::InvalidatePlan(const std::string& query_text) {
  // The stored key is "<parallelism>|<trimmed text>"; invalidate every
  // baked-option variant of the text.
  const std::string text = NormalizeQueryKeyText(query_text);
  std::lock_guard<std::mutex> lock(plan_mu_);
  std::vector<std::string> doomed;
  for (const auto& [key, entry] : plans_) {
    if (entry.compiling) continue;
    const size_t bar = key.find('|');
    if (bar != std::string::npos && key.compare(bar + 1, std::string::npos,
                                                text) == 0) {
      doomed.push_back(key);
    }
  }
  for (const std::string& key : doomed) ErasePlanLocked(key);
  plan_stats_.invalidations += static_cast<int64_t>(doomed.size());
  return static_cast<int64_t>(doomed.size());
}

int64_t QueryService::InvalidateAllPlans() {
  std::lock_guard<std::mutex> lock(plan_mu_);
  int64_t n = 0;
  // Keep compiling entries (their leaders will publish into the emptied
  // cache); drop everything completed.
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->second.compiling) {
      ++it;
      continue;
    }
    plan_bytes_ -= it->second.bytes;
    plan_lru_.erase(it->second.lru_it);
    it = plans_.erase(it);
    n++;
  }
  plan_stats_.invalidations += n;
  return n;
}

Result<std::shared_ptr<const PreparedQuery>> QueryService::GetOrCompilePlan(
    Job* job, const EngineOptions& opts) {
  // Per-request compile knobs bake into the plan, so they are part of the
  // identity: "same text, different parallelism" is a different plan.
  const std::string key = std::to_string(opts.parallelism) + "|" +
                          NormalizeQueryKeyText(job->req.query_text);
  std::unique_lock<std::mutex> lock(plan_mu_);
  // A request is counted in exactly one stats class: a direct hit, a
  // coalesced wait on an in-flight compile, or a miss (the leader).
  bool coalesced = false;
  for (;;) {
    auto it = plans_.find(key);
    if (it != plans_.end() && !it->second.compiling) {
      PlanEntry& entry = it->second;
      if (entry.plan != nullptr) {
        if (!coalesced) plan_stats_.hits++;
        plan_lru_.splice(plan_lru_.begin(), plan_lru_, entry.lru_it);
        return entry.plan;
      }
      if (Clock::now() < entry.error_expires) {
        if (!coalesced) plan_stats_.negative_hits++;
        plan_lru_.splice(plan_lru_.begin(), plan_lru_, entry.lru_it);
        return entry.error;
      }
      ErasePlanLocked(key);  // expired negative entry: recompile below
      it = plans_.end();
    }
    if (it != plans_.end()) {
      // Singleflight: another worker is compiling this key. Wait in short
      // slices so a cancelled or deadline-exhausted waiter unblocks within
      // one quantum even if the leader's compile is slow.
      if (!coalesced) plan_stats_.waiters_coalesced++;
      coalesced = true;
      do {
        if (job->token.cancelled()) {
          return Status::ResourceExhausted(
              kGuardCancelledCode, "cancelled while waiting for a shared "
                                   "plan compilation");
        }
        plan_cv_.wait_for(lock, std::chrono::milliseconds(5));
        it = plans_.find(key);
      } while (it != plans_.end() && it->second.compiling);
      continue;  // re-examine whatever the leader published (or nothing)
    }

    // Miss: this worker is the leader. Compile with the cache unlocked.
    plan_stats_.misses++;
    plans_[key].compiling = true;
    lock.unlock();
    Result<PreparedQuery> compiled = engine_.Prepare(job->req.query_text, opts);
    lock.lock();
    plan_stats_.compiles++;  // compilation work performed, pass or fail
    auto slot = plans_.find(key);  // InvalidateAllPlans may not erase us,
                                   // but be defensive about the slot
    if (compiled.ok()) {
      auto plan =
          std::make_shared<const PreparedQuery>(std::move(compiled.take()));
      if (slot != plans_.end()) {
        PlanEntry& entry = slot->second;
        entry.compiling = false;
        entry.plan = plan;
        entry.bytes = EstimatePlanBytes(key, *plan);
        plan_lru_.push_front(key);
        entry.lru_it = plan_lru_.begin();
        plan_bytes_ += entry.bytes;
        // Enforce both bounds, never evicting the entry just published.
        while (plan_lru_.size() > 1 &&
               (plans_.size() > options_.plan_cache_entries ||
                plan_bytes_ > kPlanCacheMaxBytes)) {
          ErasePlanLocked(plan_lru_.back());
          plan_stats_.evictions++;
        }
      }
      plan_cv_.notify_all();
      return plan;
    }
    Status error = compiled.status();
    if (slot != plans_.end()) {
      if (options_.plan_cache_negative_ttl_ms > 0 &&
          CompileErrorIsDeterministic(error)) {
        PlanEntry& entry = slot->second;
        entry.compiling = false;
        entry.error = error;
        entry.error_expires =
            Clock::now() +
            std::chrono::milliseconds(options_.plan_cache_negative_ttl_ms);
        entry.bytes = static_cast<int64_t>(key.size()) * 2 + 256;
        plan_lru_.push_front(key);
        entry.lru_it = plan_lru_.begin();
        plan_bytes_ += entry.bytes;
      } else {
        // Environmental failure (guard trip, cancellation, I/O): leave no
        // trace; the next request for this key compiles fresh.
        plans_.erase(slot);
      }
    }
    plan_cv_.notify_all();
    return error;
  }
}

void QueryService::WorkerLoop(size_t worker_index) {
  uint64_t jitter_state =
      kJitterSeed ^ (0x9e3779b97f4a7c15ull * (worker_index + 1));
  while (true) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || queued_ > 0; });
      if (queued_ == 0) return;  // shutdown with a drained queue
      job = DequeueLocked();
      active_[worker_index] = job->token;
      space_cv_.notify_one();
    }
    QueryResponse resp = ExecuteJob(job.get(), &jitter_state);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_[worker_index] = CancellationToken();
      FinishLocked(job->req.tenant);
      if (resp.status.ok()) {
        counters_.completed++;
      } else {
        counters_.failed++;
      }
      if (resp.retried_transient) counters_.retries++;
      const ExecStats& es = resp.stats;
      if (es.parallel_partitions > 0) counters_.parallel_queries_split++;
      counters_.parallel_partitions += es.parallel_partitions;
      counters_.parallel_steals += es.parallel_steals;
      counters_.parallel_fallbacks += es.parallel_fallbacks;
    }
    Complete(job.get(), std::move(resp));
  }
}

QueryResponse QueryService::ExecuteOnce(Job* job, const GuardLimits& limits) {
  QueryResponse resp;
  DynamicContext ctx;
  if (options_.document_store != nullptr) {
    ctx.set_document_store(options_.document_store);
  }
  ctx.set_schema(schema_);
  for (const auto& [uri, doc] : shared_docs_) ctx.RegisterDocument(uri, doc);
  for (const auto& [name, value] : shared_vars_) ctx.BindVariable(name, value);
  if (job->req.bind_context) job->req.bind_context(&ctx);

  std::shared_ptr<const PreparedQuery> prepared = job->req.prepared;
  if (prepared == nullptr) {
    EngineOptions opts = options_.engine_options;
    opts.limits = limits;
    opts.cancel = job->token;
    if (job->req.parallelism > 0) opts.parallelism = job->req.parallelism;
    if (options_.plan_cache_entries > 0 && !job->req.no_plan_cache) {
      // Cached path: repeated traffic skips parse/normalize/compile and
      // shares one immutable plan; per-request guards still apply at
      // Execute below. Compile knobs are part of the cache key, so a hit
      // is exactly the plan this request would have compiled.
      Result<std::shared_ptr<const PreparedQuery>> cached =
          GetOrCompilePlan(job, opts);
      if (!cached.ok()) {
        resp.status = cached.status();
        return resp;
      }
      prepared = cached.take();
    } else {
      Result<PreparedQuery> local = engine_.Prepare(job->req.query_text, opts);
      if (!local.ok()) {
        resp.status = local.status();
        return resp;
      }
      prepared = std::make_shared<const PreparedQuery>(local.take());
    }
  }
  Result<Sequence> r = prepared->Execute(&ctx, limits, job->token,
                                         job->req.fault_injector);
  resp.stats = prepared->last_exec_stats();
  if (!r.ok()) {
    resp.status = r.status();
    return resp;
  }
  resp.result = SerializeSequence(r.value());
  return resp;
}

QueryResponse QueryService::ExecuteJob(Job* job, uint64_t* jitter_state) {
  const GuardLimits limits =
      MergeLimits(job->req.limits, options_.default_limits);
  const int64_t queue_wait_ms = ElapsedMs(job->enqueued);

  QueryResponse resp;
  bool queue_exhausted_deadline = false;
  bool ewma_shed = false;
  GuardLimits first_attempt = limits;
  if (limits.deadline_ms > 0) {
    int64_t remaining = limits.deadline_ms - queue_wait_ms;
    if (remaining <= 0) {
      // The whole budget was spent waiting for a worker; fail fast before
      // any engine setup (no context build, no Prepare, no bind_context).
      resp.status = Status::ResourceExhausted(
          kGuardTimeoutCode,
          "query deadline of " + std::to_string(limits.deadline_ms) +
              "ms exhausted in the admission queue (waited " +
              std::to_string(queue_wait_ms) + "ms)");
      queue_exhausted_deadline = true;
    } else if (options_.shed_on_dequeue) {
      // Deadline-aware shedding: the budget left is below what queries
      // have recently been costing, so this job would almost certainly
      // trip the deadline mid-flight — a corpse. Shed it now instead of
      // burning a worker discovering that the slow way.
      double estimate;
      {
        std::lock_guard<std::mutex> lock(mu_);
        estimate = ewma_exec_ms_;
      }
      if (estimate > 0 && estimate > static_cast<double>(remaining)) {
        resp.status = Status::ResourceExhausted(
            kGuardTimeoutCode,
            "shed at dispatch: " + std::to_string(remaining) +
                "ms of the deadline remains but recent queries averaged " +
                std::to_string(static_cast<int64_t>(estimate)) +
                "ms (waited " + std::to_string(queue_wait_ms) +
                "ms in queue)");
        ewma_shed = true;
      }
    }
    if (!queue_exhausted_deadline && !ewma_shed) {
      first_attempt.deadline_ms = remaining;
    }
  }
  if (options_.shed_on_dequeue && (queue_exhausted_deadline || ewma_shed)) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.shed_in_queue++;
  }
  if (!queue_exhausted_deadline && !ewma_shed) {
    Clock::time_point exec_start = Clock::now();
    resp = ExecuteOnce(job, first_attempt);
    UpdateEwma(ElapsedMs(exec_start));
  }
  resp.queue_wait_ms = queue_wait_ms;
  resp.attempts = 1;

  // Transient classification: the deadline tripped and queue congestion ate
  // a significant share (>= 25%) of the budget, so the failure says more
  // about the service's load than about the query. Everything else —
  // memory/output/step trips, recursion, W3C errors, caller cancellation —
  // is deterministic and must not be retried. EWMA sheds are also never
  // retried: shedding exists to unload the service, and re-queueing the
  // work it dropped would cancel the relief.
  bool transient =
      !ewma_shed && options_.retry_transient && limits.deadline_ms > 0 &&
      resp.status.code() == kGuardTimeoutCode &&
      queue_wait_ms * 4 >= limits.deadline_ms;
  if (!transient) return resp;

  // Jittered backoff in [base, 2*base), interruptible by shutdown.
  int64_t backoff_ms = JitteredBackoffMs(options_.retry_backoff_ms,
                                         jitter_state);
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(backoff_ms),
                          [this] { return shutdown_; });
    if (shutdown_) return resp;  // original transient failure stands
  }
  if (job->token.cancelled()) return resp;

  Clock::time_point retry_start = Clock::now();
  QueryResponse retried = ExecuteOnce(job, limits);  // fresh full budget
  UpdateEwma(ElapsedMs(retry_start));
  retried.queue_wait_ms = queue_wait_ms;
  retried.attempts = 2;
  retried.retried_transient = true;
  return retried;
}

void QueryService::Shutdown() {
  std::deque<std::unique_ptr<Job>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      DrainQueueLocked(&orphaned);
      counters_.rejected += static_cast<int64_t>(orphaned.size());
      for (const CancellationToken& token : active_) {
        if (token.live()) {
          token.RequestCancel();
          counters_.cancelled_at_shutdown++;
        }
      }
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
    shutdown_cv_.notify_all();
  }
  for (auto& job : orphaned) {
    QueryResponse resp;
    resp.status = Overloaded("service shut down before execution");
    resp.queue_wait_ms = ElapsedMs(job->enqueued);
    Complete(job.get(), std::move(resp));
  }
  plan_cv_.notify_all();  // wake singleflight waiters into their cancel check
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

EngineOptions ServingEngineOptions() {
  EngineOptions o;
  o.parallelism = TaskPool::GlobalThreads() + 1;
  return o;
}

QueryService::Counters QueryService::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace xqc
