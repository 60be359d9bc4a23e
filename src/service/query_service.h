// QueryService: the concurrent serving layer over the engine.
//
// A QueryService owns a pool of worker threads, a bounded admission queue,
// and the per-query guard configuration, turning the single-query engine
// into something that can take sustained parallel traffic:
//
//   * Admission control: Submit() enqueues into a bounded queue. When the
//     queue is full it waits up to `admission_wait_ms` for space and then
//     fast-fails with XQC0007 (kServiceOverloadedCode) instead of queueing
//     without bound — saturation produces quick, explicit rejections.
//   * Round-robin dequeue: QueryRequest::tenant names the traffic source.
//     Each tenant's queries queue FIFO, and workers serve the tenants with
//     queued work in turn, so one tenant's backlog cannot starve the
//     others. Requests without a tenant share one FIFO. A tenant's state
//     exists only while it has a query queued or running.
//   * Per-tenant quotas (opt-in): per-tenant in-flight and queued caps
//     fast-fail a hot tenant's burst with XQC0010 (kTenantOverQuotaCode)
//     at Submit.
//   * Deadline-aware load shedding (opt-in): the service keeps an EWMA of
//     recent execution times. On dequeue, a job whose remaining
//     end-to-end budget is below that estimate is a corpse — it is failed
//     fast with XQC0001 instead of burning a worker; at admission, a
//     request whose predicted queue wait already exceeds its budget is
//     rejected with XQC0007 before it ever queues.
//   * Per-query guards: every execution runs under GuardLimits merged from
//     the request and the service defaults. The wall-clock budget is end
//     to end: time spent waiting in the admission queue is deducted from
//     the execution deadline, so a saturated service cannot silently
//     stretch latency past the promised bound.
//   * Transient retry: a query whose deadline tripped *because of queue
//     congestion* (the queue wait consumed a significant share of the
//     budget) failed for reasons unrelated to the query itself; the worker
//     retries it once, after a jittered backoff, with a fresh budget.
//     Deterministic failures — memory/output/step trips, W3C errors,
//     caller cancellation — are never retried.
//   * Shutdown: cancels every in-flight query via its CancellationToken
//     (honored within one guard-check quantum), fails everything still
//     queued with XQC0007, and joins the workers.
//
// Threading contract: RegisterDocument / BindSharedVariable / set_schema
// configure state shared by all workers and must be called before the
// first Submit. Submit / Shutdown / counters are thread-safe. Each worker
// builds a private DynamicContext per query; the shared documents and
// variable payloads are immutable and referenced, not copied (see
// DESIGN.md "Threading model").
#ifndef XQC_SERVICE_QUERY_SERVICE_H_
#define XQC_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/engine.h"

namespace xqc {

/// The engine defaults for serving: EngineOptions with intra-query
/// parallelism at the TaskPool's width plus one (the worker thread drives,
/// every pool helper may take units). Everything else is EngineOptions'
/// default.
EngineOptions ServingEngineOptions();

struct ServiceOptions {
  /// Worker threads executing queries. Clamped to >= 1.
  int num_threads = 4;
  /// Bound on queries admitted but not yet running. Clamped to >= 1.
  size_t max_queue = 64;
  /// How long Submit may block waiting for queue space before fast-failing
  /// with XQC0007. 0 = reject immediately when the queue is full.
  int64_t admission_wait_ms = 0;
  /// Per-query defaults; a request's zero (unlimited) fields inherit these.
  GuardLimits default_limits;
  /// Retry a transient (congestion-caused) deadline trip once.
  bool retry_transient = true;
  /// Base backoff before the retry; the actual wait is uniformly jittered
  /// in [base, 2*base) to decorrelate retry storms.
  int64_t retry_backoff_ms = 5;
  /// Compilation/execution configuration used for every query. Serving
  /// defaults to intra-query parallelism (ServingEngineOptions): eligible
  /// plans — fn:collection scans and the flat join / GroupBy plans of
  /// nested FLWOR blocks — fan out on the process-wide TaskPool while it
  /// has idle helpers, and run serially on the worker when it has none.
  /// Set engine_options.parallelism (or QueryRequest::parallelism) to 1
  /// for strictly serial execution.
  EngineOptions engine_options = ServingEngineOptions();
  /// DocumentStore serving the workers' fn:doc resolution (non-owning;
  /// must outlive the service). nullptr = the process-wide store. Whether
  /// the store is consulted at all is engine_options.use_doc_store.
  DocumentStore* document_store = nullptr;
  /// Configures the store's persistent snapshot tier at service startup
  /// (applied to `document_store`, or the process-wide store). "" leaves
  /// the store's current snapshot_dir untouched. Whether loads use the
  /// tier is engine_options.use_snapshots.
  std::string snapshot_dir;

  // --- Overload resilience (all default-off).

  /// Per-tenant cap on admitted-but-not-finished queries (queued +
  /// running). Exceeding it fast-fails Submit with XQC0010. 0 = unlimited.
  int64_t tenant_max_in_flight = 0;
  /// Per-tenant cap on the queued portion alone. 0 = unlimited.
  int64_t tenant_max_queued = 0;
  /// On dequeue, fail jobs fast with XQC0001 when the remaining
  /// end-to-end budget is below the EWMA of recent execution times
  /// (never burn a worker on a corpse).
  bool shed_on_dequeue = false;
  /// At admission, reject with XQC0007 when the predicted queue wait
  /// (queued jobs x EWMA / workers) already exceeds the request's
  /// deadline.
  bool predict_admission = false;
  /// Initial EWMA value in ms (0 = no estimate until the first completed
  /// execution). Lets tests and restarts seed the shedding predicate
  /// deterministically.
  double ewma_seed_ms = 0;

  // --- Prepared-plan cache (ROADMAP item 4). Results are identical with
  // --- the cache on or off; the cache only skips parse/normalize/compile
  // --- for repeated query texts (immutable PreparedQuery sharing).

  /// Max cached compiled plans. 0 disables the cache entirely — the
  /// ablation baseline (xqc_httpd --no-plan-cache): every text request
  /// compiles from scratch, byte-identical to the pre-cache service.
  /// Exceeding this bound, or a fixed budget of 64 MB of estimated plan
  /// bytes (PlanCacheStats::bytes), evicts least-recently-used entries.
  size_t plan_cache_entries = 128;
  /// TTL for negative entries: a deterministic compile failure (parse /
  /// static / not-implemented error) is replayed from the cache for this
  /// long, so a hot bad query cannot compile-bomb the workers. Guard
  /// trips, cancellations, and I/O errors during compilation are never
  /// negative-cached. 0 disables negative caching.
  int64_t plan_cache_negative_ttl_ms = 2000;
};

struct QueryResponse {
  Status status;          // OK, a W3C error, a guard trip, or XQC0007
  std::string result;     // serialized result when status is OK
  ExecStats stats;        // from the final attempt
  int64_t queue_wait_ms = 0;
  int attempts = 1;       // 2 when the transient retry ran
  bool retried_transient = false;
};

struct QueryRequest {
  /// The query. `prepared` (a shared, immutable plan) takes precedence;
  /// otherwise `query_text` is compiled on the worker.
  std::string query_text;
  std::shared_ptr<const PreparedQuery> prepared;
  /// Traffic source for per-tenant quotas and the round-robin dequeue.
  /// Empty = the anonymous default tenant (still a tenant under
  /// quotas/fairness).
  std::string tenant;
  /// Per-request limits; zero fields inherit ServiceOptions::default_limits.
  GuardLimits limits;
  /// Per-request intra-query parallelism (EngineOptions::parallelism); 0
  /// inherits the service's engine_options (by default the pool width
  /// plus one), 1 runs strictly serially (HTTP: X-XQC-Parallelism: 1).
  /// Partition work runs on the process-wide TaskPool, shared across all
  /// concurrent queries; a busy pool degrades to serial on the worker,
  /// never to queueing. Applies only when the service compiles
  /// `query_text` — a `prepared` plan's options were baked in at Prepare
  /// time.
  int parallelism = 0;
  /// Optional extra bindings, run on the worker thread against the
  /// query-private context (after shared documents/variables are installed).
  std::function<void(DynamicContext*)> bind_context;
  /// Optional caller-held cancellation token. The service cancels it on
  /// shutdown; when absent the service makes a private one.
  CancellationToken cancel;
  /// Bypass the plan cache for this request: compile from scratch and do
  /// not publish the plan (per-request ablation / debugging).
  bool no_plan_cache = false;
  /// Deterministic guard fault injection (tests only).
  GuardFaultInjector fault_injector;
  /// Invoked exactly once when the response is ready — on the worker
  /// thread that finished it, or synchronously inside Submit for
  /// fast-fail paths — immediately BEFORE the future becomes ready. This
  /// is the event-loop integration hook (the HTTP front end uses it to
  /// wake its poll loop instead of blocking a thread per future).
  std::function<void(const QueryResponse&)> on_done;
};

class QueryService {
 public:
  explicit QueryService(ServiceOptions options = ServiceOptions());
  ~QueryService();  // calls Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Shared immutable state, installed into every query's context.
  /// Must be called before the first Submit.
  void RegisterDocument(const std::string& uri, NodePtr doc);
  void BindSharedVariable(Symbol name, Sequence value);
  void set_schema(const Schema* schema) { schema_ = schema; }

  /// Admits a query (possibly waiting admission_wait_ms for queue space)
  /// and returns a future for its response. Never throws; admission
  /// failures and post-shutdown submissions complete the future with
  /// XQC0007.
  std::future<QueryResponse> Submit(QueryRequest req);

  /// Convenience: Submit and wait.
  QueryResponse Run(QueryRequest req) { return Submit(std::move(req)).get(); }

  /// Cancels in-flight queries, fails queued ones with XQC0007, and joins
  /// the workers. Idempotent; called by the destructor.
  void Shutdown();

  /// Monotonic service counters (all guarded; safe to read any time).
  struct Counters {
    int64_t submitted = 0;   // Submit calls
    int64_t rejected = 0;    // XQC0007/XQC0010 at admission or shutdown
    int64_t completed = 0;   // finished with OK status
    int64_t failed = 0;      // finished with any non-OK status
    int64_t retries = 0;     // transient retries performed
    int64_t cancelled_at_shutdown = 0;  // in-flight when Shutdown ran
    // Overload-resilience counters (all zero with the features off).
    int64_t shed_in_queue = 0;         // corpse jobs failed fast at dequeue
    int64_t rejected_predicted = 0;    // admission rejections by wait
                                       // prediction (XQC0007)
    int64_t tenant_rejected = 0;       // total XQC0010 rejections
    std::unordered_map<std::string, int64_t> tenant_rejections;  // per tenant
    // Intra-query parallelism, summed from each response's ExecStats.
    int64_t parallel_queries_split = 0;  // executions that fanned out
    int64_t parallel_partitions = 0;     // units they ran
    int64_t parallel_steals = 0;         // units run by pool helpers
    int64_t parallel_fallbacks = 0;      // parallel asked for, ran serial
  };
  Counters counters() const;

  /// Current execution-time estimate in ms (0 until the first completed
  /// execution unless seeded); drives shedding and admission prediction.
  double ewma_exec_ms() const;

  /// Queries admitted but not yet dispatched to a worker. The HTTP front
  /// end uses this for accept-loop backpressure (stop accepting sockets
  /// while the admission queue is saturated).
  size_t queue_depth() const;

  /// Tenants with a query queued or running (the per-tenant state kept;
  /// a tenant's state is dropped when it has neither).
  size_t tenant_count() const;

  /// Plan-cache counters and current occupancy (all zero with
  /// plan_cache_entries = 0).
  struct PlanCacheStats {
    int64_t hits = 0;           // served a cached compiled plan
    int64_t misses = 0;         // no usable entry; a compile was needed
    int64_t compiles = 0;       // compiles actually performed (successful)
    int64_t evictions = 0;      // entries dropped by the entry/byte bounds
    int64_t negative_hits = 0;  // compile errors replayed from the cache
    int64_t invalidations = 0;  // entries removed by InvalidatePlan[All]
    int64_t waiters_coalesced = 0;  // singleflight waits on a compile
    int64_t entries = 0;        // current cached entries (incl. negative)
    int64_t bytes = 0;          // current estimated cached-plan bytes
  };
  PlanCacheStats plan_cache_stats() const;

  /// Removes the cached plan(s) compiled from `query_text` (every
  /// baked-option variant, positive or negative). Returns the number of
  /// entries removed. In-flight executions keep their shared_ptr; the
  /// entry is simply unpublished.
  int64_t InvalidatePlan(const std::string& query_text);
  /// Empties the plan cache. Returns the number of entries removed.
  int64_t InvalidateAllPlans();

  const ServiceOptions& options() const { return options_; }

 private:
  struct Job {
    QueryRequest req;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    CancellationToken token;  // req.cancel, or a service-made one
  };

  /// Per-tenant admission/fairness bookkeeping, kept only while the
  /// tenant has a query queued or running.
  struct TenantState {
    std::deque<std::unique_ptr<Job>> fifo;  // admitted, still queued
    int64_t running = 0;  // dequeued, executing on a worker
  };

  /// One plan-cache slot: exactly one of {compiling, plan, error} is
  /// meaningful. Completed entries (plan or unexpired error) sit in the
  /// LRU; a compiling entry is pinned until its leader publishes.
  struct PlanEntry {
    bool compiling = false;
    std::shared_ptr<const PreparedQuery> plan;  // positive entry
    Status error;                               // negative entry
    std::chrono::steady_clock::time_point error_expires{};
    int64_t bytes = 0;
    std::list<std::string>::iterator lru_it{};  // valid when !compiling
  };

  void WorkerLoop(size_t worker_index);
  QueryResponse ExecuteJob(Job* job, uint64_t* jitter_state);
  /// One engine execution of the job under `limits`. Fills status/result/
  /// stats only.
  QueryResponse ExecuteOnce(Job* job, const GuardLimits& limits);
  /// Cache-or-compile: returns the shared plan for the job's query text
  /// (hit, negative replay, singleflight wait, or leader compile under
  /// `opts`). Takes and releases plan_mu_; compiles unlocked.
  Result<std::shared_ptr<const PreparedQuery>> GetOrCompilePlan(
      Job* job, const EngineOptions& opts);
  /// Fulfills the job's promise and fires its on_done hook (in that
  /// textual order; on_done runs just before set_value publishes).
  static void Complete(Job* job, QueryResponse resp);
  /// Drops `key`'s completed entry from the map/LRU/byte total. Callers
  /// hold plan_mu_.
  void ErasePlanLocked(const std::string& key);

  /// The admission queue: one FIFO per tenant, served round-robin.
  /// Callers hold mu_.
  void EnqueueLocked(std::unique_ptr<Job> job);
  std::unique_ptr<Job> DequeueLocked();
  void DrainQueueLocked(std::deque<std::unique_ptr<Job>>* out);
  /// A dequeued job of `tenant` finished; drops the tenant's state when it
  /// has nothing else queued or running. Callers hold mu_.
  void FinishLocked(const std::string& tenant);
  /// Folds a completed execution's duration into the EWMA (takes mu_).
  void UpdateEwma(int64_t exec_ms);

  ServiceOptions options_;
  Engine engine_;
  const Schema* schema_ = nullptr;
  std::vector<std::pair<std::string, NodePtr>> shared_docs_;
  std::vector<std::pair<Symbol, Sequence>> shared_vars_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue became non-empty / shutdown
  std::condition_variable space_cv_;  // queue gained space / shutdown
  std::condition_variable shutdown_cv_;  // interrupts retry backoff
  std::unordered_map<std::string, TenantState> tenants_;
  std::deque<std::string> rr_;  // tenants with queued jobs, in turn order
  size_t queued_ = 0;           // total jobs across tenant FIFOs
  double ewma_exec_ms_ = 0;      // 0 = no estimate yet
  std::vector<CancellationToken> active_;  // per-worker in-flight token
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
  Counters counters_;

  /// Plan cache. Guarded by its own mutex (never held while compiling or
  /// while holding mu_) so a slow compile can't stall admission.
  mutable std::mutex plan_mu_;
  std::condition_variable plan_cv_;  // a compile finished (either way)
  std::unordered_map<std::string, PlanEntry> plans_;
  std::list<std::string> plan_lru_;  // front = most recently used
  int64_t plan_bytes_ = 0;
  PlanCacheStats plan_stats_;
};

/// The plan-cache key normalization: leading/trailing whitespace is
/// insignificant in XQuery, so spellings differing only there share one
/// cache entry. Interior whitespace is preserved — it can be significant
/// inside string literals and direct element constructors. Exposed for
/// tests.
std::string NormalizeQueryKeyText(const std::string& query_text);

/// The service's retry-backoff jitter: a wait uniformly distributed in
/// [base, 2*base) drawn from the xorshift64* stream `state`. Exposed so
/// tests can pin the jitter contract (range and determinism for a fixed
/// seed) against the exact sequence the workers use.
int64_t JitteredBackoffMs(int64_t base_ms, uint64_t* state);

}  // namespace xqc

#endif  // XQC_SERVICE_QUERY_SERVICE_H_
