// Overload-resilience tests for QueryService (see DESIGN.md "Overload
// policy"): per-tenant admission quotas (XQC0010), weighted-fair dequeue,
// deadline-aware load shedding at dispatch and admission, the zero-deadline
// dispatch edge, retry-backoff jitter, and prompt shutdown during backoff.
//
// Everything here runs under TSan in scripts/check.sh alongside
// concurrency_test, so the new queue bookkeeping is race-checked too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/query_service.h"

namespace xqc {
namespace {

// Runs effectively forever unless a guard or cancellation stops it — used
// to pin a worker so queue behavior can be observed deterministically.
const char* kUnboundedQuery =
    "count(for $a in 1 to 1000000, $b in 1 to 1000000 return 1)";

/// Submits `query` under a caller-held token and blocks until a worker has
/// picked it up (bind_context runs on the worker thread before execution).
std::future<QueryResponse> SubmitAndWaitStart(QueryService* service,
                                              const std::string& query,
                                              CancellationToken token,
                                              const std::string& tenant = "") {
  auto started = std::make_shared<std::promise<void>>();
  std::future<void> started_future = started->get_future();
  QueryRequest req;
  req.query_text = query;
  req.tenant = tenant;
  req.cancel = std::move(token);
  req.bind_context = [started,
                      fired = std::make_shared<std::atomic<bool>>(false)](
                         DynamicContext*) {
    if (!fired->exchange(true)) started->set_value();
  };
  std::future<QueryResponse> f = service->Submit(std::move(req));
  if (f.wait_for(std::chrono::milliseconds(0)) != std::future_status::ready) {
    started_future.wait();
  }
  return f;
}

// ---- per-tenant quotas -----------------------------------------------------

TEST(ServiceTenantQuota, OverQuotaTenantFailsFastOthersAdmitted) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.tenant_max_in_flight = 2;  // queued + running per tenant
  opts.retry_transient = false;
  QueryService service(opts);

  // Tenant A: one running (pins the worker), one queued — at quota.
  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "A");
  QueryRequest queued;
  queued.query_text = "1 + 1";
  queued.tenant = "A";
  auto waiting = service.Submit(std::move(queued));

  // A third request from A is over quota: it must fail synchronously
  // (future already ready) with XQC0010, without touching the queue.
  auto t0 = std::chrono::steady_clock::now();
  QueryRequest over;
  over.query_text = "2 + 2";
  over.tenant = "A";
  auto rejected = service.Submit(std::move(over));
  ASSERT_EQ(rejected.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  QueryResponse resp = rejected.get();
  int64_t reject_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(resp.status.code(), kTenantOverQuotaCode);
  EXPECT_LT(reject_ms, 5);

  // Tenant B is unaffected by A's saturation.
  QueryRequest other;
  other.query_text = "3 + 3";
  other.tenant = "B";
  auto admitted = service.Submit(std::move(other));

  pin.RequestCancel();
  EXPECT_FALSE(running.get().status.ok());
  EXPECT_EQ(waiting.get().result, "2");
  EXPECT_EQ(admitted.get().result, "6");

  // Quota slots are released by completion: A fits again.
  QueryRequest again;
  again.query_text = "4 + 4";
  again.tenant = "A";
  EXPECT_EQ(service.Run(std::move(again)).result, "8");

  QueryService::Counters c = service.counters();
  EXPECT_EQ(c.tenant_rejected, 1);
  EXPECT_EQ(c.tenant_rejections.at("A"), 1);
  EXPECT_EQ(c.tenant_rejections.count("B"), 0u);
}

TEST(ServiceTenantQuota, QueuedQuotaCapsBacklogOnly) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.tenant_max_queued = 1;
  opts.retry_transient = false;
  QueryService service(opts);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "A");

  QueryRequest first;
  first.query_text = "1";
  first.tenant = "A";
  auto q1 = service.Submit(std::move(first));  // 1 queued: at cap
  QueryRequest second;
  second.query_text = "2";
  second.tenant = "A";
  auto q2 = service.Submit(std::move(second));
  EXPECT_EQ(q2.get().status.code(), kTenantOverQuotaCode);

  pin.RequestCancel();
  EXPECT_EQ(q1.get().result, "1");
  running.get();
}

// ---- weighted-fair dequeue -------------------------------------------------

TEST(ServiceFairDequeue, RoundRobinAcrossTenantsFifoWithin) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.retry_transient = false;
  QueryService service(opts);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "Z");

  // Backlog while the worker is pinned: A floods, B and C each queue one.
  std::mutex mu;
  std::vector<std::string> pickup_order;
  std::vector<std::future<QueryResponse>> futures;
  auto enqueue = [&](const std::string& tenant, const std::string& tag) {
    QueryRequest req;
    req.query_text = "'" + tag + "'";
    req.tenant = tenant;
    req.bind_context = [&mu, &pickup_order, tag](DynamicContext*) {
      std::lock_guard<std::mutex> lock(mu);
      pickup_order.push_back(tag);
    };
    futures.push_back(service.Submit(std::move(req)));
  };
  enqueue("A", "a1");
  enqueue("A", "a2");
  enqueue("A", "a3");
  enqueue("B", "b1");
  enqueue("C", "c1");

  pin.RequestCancel();
  running.get();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());

  // One slot per tenant per cycle (A, B, C, then A's remaining backlog),
  // and A's own jobs stay in submission order.
  std::vector<std::string> want = {"a1", "b1", "c1", "a2", "a3"};
  EXPECT_EQ(pickup_order, want);
}

// A tenant's state lives only while it has a query queued or running, so
// a stream of distinct tenant names (any HTTP client can send one per
// request) leaves nothing behind.
TEST(ServiceFairDequeue, IdleTenantsLeaveNoState) {
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.max_queue = 64;
  opts.admission_wait_ms = 60'000;  // block for space instead of rejecting
  opts.retry_transient = false;
  QueryService service(opts);
  constexpr int kTenants = 10'000;
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(kTenants);
  for (int i = 0; i < kTenants; i++) {
    QueryRequest req;
    req.query_text = "1";
    req.tenant = "tenant-" + std::to_string(i);
    futures.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().result, "1");
  EXPECT_EQ(service.counters().completed, kTenants);
  EXPECT_EQ(service.tenant_count(), 0u);
}

// ---- deadline-aware shedding -----------------------------------------------

TEST(ServiceShedding, EwmaShedsCorpseJobsFastWithDeadlineCode) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.shed_on_dequeue = true;
  opts.ewma_seed_ms = 60'000;  // "queries have been taking a minute"
  opts.retry_transient = false;
  QueryService service(opts);
  EXPECT_DOUBLE_EQ(service.ewma_exec_ms(), 60'000.0);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "");

  // 5s of budget remains when this dequeues, far below the 60s estimate:
  // a corpse. It must fail with the deadline code without executing.
  std::atomic<bool> engine_touched{false};
  QueryRequest doomed;
  doomed.query_text = "1 + 1";
  doomed.limits.deadline_ms = 5'000;
  doomed.bind_context = [&engine_touched](DynamicContext*) {
    engine_touched = true;
  };
  auto shed = service.Submit(std::move(doomed));

  pin.RequestCancel();
  running.get();
  QueryResponse resp = shed.get();
  EXPECT_EQ(resp.status.code(), kGuardTimeoutCode);
  EXPECT_NE(resp.status.message().find("shed at dispatch"), std::string::npos);
  EXPECT_EQ(resp.attempts, 1);
  EXPECT_FALSE(resp.retried_transient);
  EXPECT_FALSE(engine_touched.load());
  EXPECT_EQ(service.counters().shed_in_queue, 1);
}

TEST(ServiceShedding, PredictedQueueWaitRejectsAtAdmission) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 32;
  opts.predict_admission = true;
  opts.ewma_seed_ms = 10'000;  // each queued job predicts 10s of wait
  opts.retry_transient = false;
  QueryService service(opts);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "");

  // Backlog of deadline-less jobs (never rejected by prediction).
  std::vector<std::future<QueryResponse>> backlog;
  for (int i = 0; i < 4; i++) {
    QueryRequest req;
    req.query_text = kUnboundedQuery;
    req.cancel = pin;  // all released together
    backlog.push_back(service.Submit(std::move(req)));
  }

  // Predicted wait is 4 x 10s / 1 worker = 40s >> the 100ms budget:
  // reject at Submit, synchronously, with the overload code.
  QueryRequest hopeless;
  hopeless.query_text = "1";
  hopeless.limits.deadline_ms = 100;
  auto rejected = service.Submit(std::move(hopeless));
  ASSERT_EQ(rejected.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  QueryResponse resp = rejected.get();
  EXPECT_EQ(resp.status.code(), kServiceOverloadedCode);
  EXPECT_NE(resp.status.message().find("predicted queue wait"),
            std::string::npos);
  EXPECT_EQ(service.counters().rejected_predicted, 1);

  pin.RequestCancel();
  service.Shutdown();  // queued backlog fails XQC0007; that's fine here
  running.get();
  for (auto& f : backlog) f.get();
}

// ---- the zero-deadline dispatch edge ---------------------------------------

TEST(ServiceShedding, BudgetExhaustedInQueueFailsBeforeEngineSetup) {
  // When the queue wait consumed the entire end-to-end budget, the job
  // must fail before ANY engine setup: bind_context (which ExecuteOnce
  // invokes before Prepare) is the sentinel — it must never fire.
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.retry_transient = false;  // isolate the dispatch path
  QueryService service(opts);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "");

  std::atomic<bool> engine_touched{false};
  QueryRequest req;
  req.query_text = "1 + 1";
  req.limits.deadline_ms = 1;  // gone by the time a worker frees up
  req.bind_context = [&engine_touched](DynamicContext*) {
    engine_touched = true;
  };
  auto f = service.Submit(std::move(req));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pin.RequestCancel();
  running.get();
  QueryResponse resp = f.get();
  EXPECT_EQ(resp.status.code(), kGuardTimeoutCode);
  EXPECT_NE(resp.status.message().find("exhausted in the admission queue"),
            std::string::npos);
  EXPECT_GE(resp.queue_wait_ms, 1);
  EXPECT_FALSE(engine_touched.load());
  // Not an EWMA shed: with shedding off the counter stays zero.
  EXPECT_EQ(service.counters().shed_in_queue, 0);
}

// ---- retry-backoff jitter --------------------------------------------------

TEST(ServiceJitter, BackoffStaysInHalfOpenRange) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 10'000; i++) {
    int64_t wait = JitteredBackoffMs(8, &state);
    EXPECT_GE(wait, 8);
    EXPECT_LT(wait, 16);
  }
}

TEST(ServiceJitter, DeterministicForFixedSeedDistinctAcrossSeeds) {
  uint64_t a = 42, b = 42, c = 43;
  bool diverged = false;
  for (int i = 0; i < 256; i++) {
    int64_t wa = JitteredBackoffMs(100, &a);
    EXPECT_EQ(wa, JitteredBackoffMs(100, &b));  // same seed, same stream
    if (wa != JitteredBackoffMs(100, &c)) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seeds decorrelate
}

TEST(ServiceJitter, ShutdownInterruptsBackoffPromptly) {
  // Force a transient (congestion-caused) deadline trip so the worker
  // enters its retry backoff, sized at a full minute — Shutdown must cut
  // through it immediately and the original failure must stand.
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.max_queue = 16;
  opts.retry_transient = true;
  opts.retry_backoff_ms = 60'000;
  QueryService service(opts);

  CancellationToken pin = CancellationToken::Make();
  auto running = SubmitAndWaitStart(&service, kUnboundedQuery, pin, "");

  QueryRequest req;
  req.query_text = "1 + 1";
  req.limits.deadline_ms = 5;  // consumed in queue => transient trip
  auto f = service.Submit(std::move(req));

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  pin.RequestCancel();
  running.get();
  // Give the worker a moment to land inside the backoff wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto t0 = std::chrono::steady_clock::now();
  service.Shutdown();
  int64_t shutdown_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_LT(shutdown_ms, 5'000);  // nowhere near the 60s backoff

  QueryResponse resp = f.get();
  EXPECT_EQ(resp.status.code(), kGuardTimeoutCode);
  EXPECT_EQ(resp.attempts, 1);
  EXPECT_FALSE(resp.retried_transient);
}

// ---- EWMA plumbing ---------------------------------------------------------

TEST(ServiceEwma, TracksCompletedExecutions) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.retry_transient = false;
  QueryService service(opts);
  EXPECT_DOUBLE_EQ(service.ewma_exec_ms(), 0.0);

  QueryRequest req;
  req.query_text = "sum(1 to 1000)";
  EXPECT_EQ(service.Run(std::move(req)).result, "500500");
  // A completed execution seeds the estimate (>= 0; typically sub-ms
  // rounds to 0ms, so only check that seeding from options still works).
  ServiceOptions seeded;
  seeded.ewma_seed_ms = 25;
  QueryService seeded_service(seeded);
  EXPECT_DOUBLE_EQ(seeded_service.ewma_exec_ms(), 25.0);
}

// ---- ablation parity -------------------------------------------------------

TEST(ServiceAblation, DefaultOptionsLeaveNewCountersUntouched) {
  // With every overload knob at its default the service must behave like
  // the pre-quota layer: tenants are accepted, nothing is shed or
  // predicted, and the new counters stay zero.
  ServiceOptions opts;
  opts.num_threads = 2;
  opts.retry_transient = false;
  QueryService service(opts);

  for (int i = 0; i < 8; i++) {
    QueryRequest req;
    req.query_text = std::to_string(i) + " * 2";
    req.tenant = (i % 2 == 0) ? "A" : "B";  // ignored without quotas
    req.limits.deadline_ms = 60'000;
    QueryResponse resp = service.Run(std::move(req));
    EXPECT_TRUE(resp.status.ok()) << resp.status.message();
    EXPECT_EQ(resp.result, std::to_string(i * 2));
  }

  QueryService::Counters c = service.counters();
  EXPECT_EQ(c.submitted, 8);
  EXPECT_EQ(c.completed, 8);
  EXPECT_EQ(c.rejected, 0);
  EXPECT_EQ(c.shed_in_queue, 0);
  EXPECT_EQ(c.rejected_predicted, 0);
  EXPECT_EQ(c.tenant_rejected, 0);
  EXPECT_TRUE(c.tenant_rejections.empty());
}

// ---- prepared-plan cache ---------------------------------------------------

TEST(PlanCache, HitSkipsCompileAndAnswersIdentically) {
  ServiceOptions opts;
  opts.num_threads = 2;
  QueryService service(opts);

  QueryRequest a;
  a.query_text = "for $i in 1 to 10 return $i * $i";
  QueryResponse ra = service.Run(std::move(a));
  ASSERT_TRUE(ra.status.ok());
  QueryRequest b;
  b.query_text = "  for $i in 1 to 10 return $i * $i \n";  // same after trim
  QueryResponse rb = service.Run(std::move(b));
  ASSERT_TRUE(rb.status.ok());
  EXPECT_EQ(ra.result, rb.result);

  QueryService::PlanCacheStats pc = service.plan_cache_stats();
  EXPECT_EQ(pc.compiles, 1);
  EXPECT_EQ(pc.misses, 1);
  EXPECT_EQ(pc.hits, 1);
  EXPECT_EQ(pc.entries, 1);
  EXPECT_GT(pc.bytes, 0);
}

TEST(PlanCache, AblationIsByteIdenticalAndUncounted) {
  // The --no-plan-cache path must be the exact pre-cache code path: same
  // bytes out, nothing recorded in the cache.
  ServiceOptions cached_opts;
  cached_opts.num_threads = 1;
  ServiceOptions ablated_opts;
  ablated_opts.num_threads = 1;
  ablated_opts.plan_cache_entries = 0;
  QueryService cached(cached_opts);
  QueryService ablated(ablated_opts);
  const char* kQueries[] = {
      "1 to 5",
      "<r>{for $i in 1 to 3 return <x>{$i}</x>}</r>",
      "sum(for $i in 1 to 100 return $i)",
  };
  for (const char* q : kQueries) {
    for (int round = 0; round < 2; round++) {
      QueryRequest r1;
      r1.query_text = q;
      QueryRequest r2;
      r2.query_text = q;
      QueryResponse a = cached.Run(std::move(r1));
      QueryResponse b = ablated.Run(std::move(r2));
      ASSERT_TRUE(a.status.ok()) << q;
      ASSERT_TRUE(b.status.ok()) << q;
      EXPECT_EQ(a.result, b.result) << q;
    }
  }
  EXPECT_GT(cached.plan_cache_stats().hits, 0);
  QueryService::PlanCacheStats pc = ablated.plan_cache_stats();
  EXPECT_EQ(pc.hits + pc.misses + pc.compiles + pc.entries, 0);

  // Per-request bypass on a cache-enabled service is also untracked.
  QueryRequest bypass;
  bypass.query_text = "9 - 2";
  bypass.no_plan_cache = true;
  EXPECT_TRUE(cached.Run(std::move(bypass)).status.ok());
  EXPECT_EQ(cached.plan_cache_stats().entries, 3u);  // nothing new cached
}

TEST(PlanCache, StampedeCompilesExactlyOnce) {
  // N threads race one cold query; singleflight must compile it once and
  // coalesce every other thread onto that compilation.
  ServiceOptions opts;
  opts.num_threads = 8;
  opts.max_queue = 64;
  QueryService service(opts);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      QueryRequest req;
      req.query_text = "count(for $i in 1 to 500 return $i)";
      req.limits.deadline_ms = 60'000;
      QueryResponse resp = service.Run(std::move(req));
      if (resp.status.ok() && resp.result == "500") ok.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);
  QueryService::PlanCacheStats pc = service.plan_cache_stats();
  EXPECT_EQ(pc.compiles, 1);
  EXPECT_EQ(pc.hits + pc.waiters_coalesced, kThreads - 1);
}

TEST(PlanCache, ParallelismKeysSeparately) {
  // parallelism bakes into the compiled plan, so each effective value is
  // its own cache entry — a hit may never change semantics.
  ServiceOptions opts;
  opts.num_threads = 2;
  QueryService service(opts);
  const std::string q = "count(for $i in 1 to 200 return $i)";
  for (int parallelism : {1, 2}) {
    QueryRequest req;
    req.query_text = q;
    req.parallelism = parallelism;
    QueryResponse resp = service.Run(std::move(req));
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.result, "200");
  }
  EXPECT_EQ(service.plan_cache_stats().compiles, 2);
  EXPECT_EQ(service.plan_cache_stats().entries, 2u);
}

TEST(PlanCache, NegativeCachingOnlyForDeterministicErrors) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_negative_ttl_ms = 60'000;
  QueryService service(opts);
  for (int i = 0; i < 3; i++) {
    QueryRequest req;
    req.query_text = "1 to (((";  // parse error: deterministic
    QueryResponse resp = service.Run(std::move(req));
    EXPECT_FALSE(resp.status.ok());
    EXPECT_EQ(resp.status.kind(), StatusKind::kParseError);
  }
  QueryService::PlanCacheStats pc = service.plan_cache_stats();
  EXPECT_EQ(pc.compiles, 1);  // the error was cached, not re-derived
  EXPECT_EQ(pc.negative_hits, 2);
}

TEST(PlanCache, InvalidationDropsEntriesAndForcesRecompile) {
  ServiceOptions opts;
  opts.num_threads = 1;
  QueryService service(opts);
  auto run = [&](const std::string& q) {
    QueryRequest req;
    req.query_text = q;
    return service.Run(std::move(req));
  };
  ASSERT_TRUE(run("1 + 1").status.ok());
  ASSERT_TRUE(run("2 + 2").status.ok());
  EXPECT_EQ(service.plan_cache_stats().entries, 2u);
  EXPECT_EQ(service.InvalidatePlan("1 + 1"), 1);
  EXPECT_EQ(service.InvalidatePlan("no such entry"), 0);
  EXPECT_EQ(service.plan_cache_stats().entries, 1u);
  ASSERT_TRUE(run("1 + 1").status.ok());
  EXPECT_EQ(service.plan_cache_stats().compiles, 3);  // recompiled
  EXPECT_EQ(service.InvalidateAllPlans(), 2);
  EXPECT_EQ(service.plan_cache_stats().entries, 0u);
}

// The cache key prefixes the text with the baked options; a '|' inside
// the query text must not confuse the invalidation match.
TEST(PlanCache, InvalidationMatchesTextContainingBar) {
  ServiceOptions opts;
  opts.num_threads = 1;
  QueryService service(opts);
  const std::string q = "count((<a/> | <b/>))";
  QueryRequest req;
  req.query_text = q;
  QueryResponse resp = service.Run(std::move(req));
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();
  EXPECT_EQ(resp.result, "2");
  EXPECT_EQ(service.InvalidatePlan(q), 1);
  EXPECT_EQ(service.plan_cache_stats().entries, 0u);
}

TEST(PlanCache, LruEvictionBoundsEntries) {
  ServiceOptions opts;
  opts.num_threads = 1;
  opts.plan_cache_entries = 4;
  QueryService service(opts);
  for (int i = 0; i < 10; i++) {
    QueryRequest req;
    req.query_text = std::to_string(i) + " + 0";
    ASSERT_TRUE(service.Run(std::move(req)).status.ok());
  }
  QueryService::PlanCacheStats pc = service.plan_cache_stats();
  EXPECT_LE(pc.entries, 4u);
  EXPECT_EQ(pc.evictions, 6);
  // The most recent entry is resident; the oldest was evicted.
  QueryRequest hot;
  hot.query_text = "9 + 0";
  ASSERT_TRUE(service.Run(std::move(hot)).status.ok());
  EXPECT_EQ(service.plan_cache_stats().compiles, 10);  // hit, no recompile
  QueryRequest cold;
  cold.query_text = "0 + 0";
  ASSERT_TRUE(service.Run(std::move(cold)).status.ok());
  EXPECT_EQ(service.plan_cache_stats().compiles, 11);  // evicted, recompiled
}

}  // namespace
}  // namespace xqc
