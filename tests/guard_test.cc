// Tests for the QueryGuard resource-governance layer (src/base/guard.h):
// deadlines, cooperative cancellation, memory budgets, output caps, step
// quotas, and deterministic fault injection — exercised through the public
// engine API across all three configurations (algebra streaming, algebra
// materializing, baseline interpreter).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/clio/clio.h"
#include "src/engine/engine.h"
#include "src/xml/doc_index.h"
#include "src/xml/xml_parser.h"
#include "test_util.h"

namespace xqc {
namespace {

struct Config {
  const char* name;
  EngineOptions opts;
};

std::vector<Config> AllConfigs() {
  Config streaming{"algebra-streaming", EngineOptions{}};
  streaming.opts.exec_mode = ExecMode::kStreaming;
  Config materialize{"algebra-materialize", EngineOptions{}};
  materialize.opts.exec_mode = ExecMode::kMaterialize;
  Config interp{"interpreter", EngineOptions{}};
  interp.opts.use_algebra = false;
  return {streaming, materialize, interp};
}

// Prepares and executes; errors come back as "ERROR:<code>" (execution) or
// "PREPARE-ERROR:<code>" (compilation).
std::string RunQuery(const std::string& query, const EngineOptions& opts,
                DynamicContext* ctx) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(query, opts);
  if (!q.ok()) return "PREPARE-ERROR:" + q.status().code();
  Result<std::string> r = q.value().ExecuteToString(ctx);
  if (!r.ok()) return "ERROR:" + r.status().code();
  return r.value();
}

TEST(Guard, UnlimitedByDefault) {
  for (const Config& cfg : AllConfigs()) {
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(1 to 100000)", cfg.opts, &ctx), "100000")
        << cfg.name;
  }
}

TEST(Guard, DeadlineTripsOnUnboundedCrossProduct) {
  // Acceptance criterion: a 50ms deadline over an effectively unbounded
  // cross product terminates promptly with XQC0001 in every config.
  const std::string kQuery =
      "count(for $a in 1 to 100000, $b in 1 to 100000, "
      "$c in 1 to 100000 return 1)";
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.limits.deadline_ms = 50;
    Engine engine;
    Result<PreparedQuery> q = engine.Prepare(kQuery, opts);
    ASSERT_OK(q);
    DynamicContext ctx;
    auto start = std::chrono::steady_clock::now();
    Result<Sequence> r = q.value().Execute(&ctx);
    auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_FALSE(r.ok()) << cfg.name;
    EXPECT_EQ(r.status().code(), "XQC0001") << cfg.name;
    // Unloaded release builds finish within ~2x the deadline; the slack
    // here covers sanitizer builds and loaded test runners. Any bound at
    // all proves termination is deadline-driven: the full cross product is
    // 10^15 tuples and would otherwise run for days.
    EXPECT_LT(elapsed_ms, 5000) << cfg.name;
  }
}

TEST(Guard, PreCancelledTokenTrips) {
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.cancel = CancellationToken::Make();
    opts.cancel.RequestCancel();
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(for $i in 1 to 1000000 return $i + 0)", opts, &ctx),
              "ERROR:XQC0002")
        << cfg.name;
  }
}

TEST(Guard, MidStreamCancellation) {
  // Pull a few items from a live stream, cancel, and the very next pull
  // must fail with XQC0002 (the stream does an unamortized check per
  // tuple).
  EngineOptions opts;  // streaming algebra (the default)
  opts.cancel = CancellationToken::Make();
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("for $x in 1 to 100000 return $x", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Item item;
  for (int i = 0; i < 10; i++) {
    Result<bool> has = rs.value().Next(&item);
    ASSERT_OK(has);
    ASSERT_TRUE(has.value());
  }
  opts.cancel.RequestCancel();
  Result<bool> has = rs.value().Next(&item);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), "XQC0002");
  EXPECT_EQ(has.status().kind(), StatusKind::kResourceExhausted);
}

TEST(Guard, MemoryBudgetTrips) {
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.limits.max_memory_bytes = 1 << 20;  // 1 MiB
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(for $i in 1 to 1000000 return <e/>)", opts, &ctx),
              "ERROR:XQC0003")
        << cfg.name;
  }
}

TEST(Guard, MemoryBudgetCountsProductRowsBehindABreaker) {
  // A million-row product feeding order by: the sort needs every row, so
  // every row the product emits is charged, whichever mode the algebra
  // runs in. Only the row charges exceed the budget here; the two ranges
  // themselves are small.
  for (const Config& cfg : AllConfigs()) {
    if (!cfg.opts.use_algebra) continue;
    EngineOptions opts = cfg.opts;
    opts.limits.max_memory_bytes = 1 << 20;  // 1 MiB
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(for $a in 1 to 1000, $b in 1 to 1000 "
                       "order by $a return 1)",
                       opts, &ctx),
              "ERROR:XQC0003")
        << cfg.name;
  }
}

TEST(Guard, MemoryBudgetAllowsSmallQueries) {
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.limits.max_memory_bytes = 64 << 20;
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(for $i in 1 to 1000 return <e/>)", opts, &ctx),
              "1000")
        << cfg.name;
  }
}

TEST(Guard, OutputCapTrips) {
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.limits.max_output_items = 100;
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("1 to 1000", opts, &ctx), "ERROR:XQC0004") << cfg.name;
    // Exactly at the cap is allowed.
    std::string ok = RunQuery("1 to 100", opts, &ctx);
    EXPECT_EQ(ok.substr(0, 8), "1 2 3 4 ") << cfg.name;
  }
}

TEST(Guard, OutputCapTripsMidStream) {
  // Streaming delivery enforces the cap per item: exactly `cap` items come
  // out, then XQC0004 — the remainder of the plan is never evaluated.
  EngineOptions opts;
  opts.limits.max_output_items = 10;
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("for $x in 1 to 100000 return $x", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Item item;
  int delivered = 0;
  while (true) {
    Result<bool> has = rs.value().Next(&item);
    if (!has.ok()) {
      EXPECT_EQ(has.status().code(), "XQC0004");
      break;
    }
    ASSERT_TRUE(has.value()) << "stream ended before tripping the cap";
    delivered++;
    ASSERT_LE(delivered, 10);
  }
  EXPECT_EQ(delivered, 10);
}

TEST(Guard, StepQuotaTrips) {
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.limits.max_eval_steps = 10000;
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("count(for $i in 1 to 300000 return $i + 0)", opts, &ctx),
              "ERROR:XQC0006")
        << cfg.name;
  }
}

TEST(Guard, FaultInjectorTripsEveryCode) {
  // Deterministically trip the guard with each vendor code in every
  // config, proving each unwind path is exercised and reports faithfully.
  const char* kCodes[] = {kGuardTimeoutCode,   kGuardCancelledCode,
                          kGuardMemoryCode,    kGuardOutputCode,
                          kGuardRecursionCode, kGuardStepsCode};
  for (const Config& cfg : AllConfigs()) {
    for (const char* code : kCodes) {
      EngineOptions opts = cfg.opts;
      opts.fault_injector.trip_check_n = 2;
      opts.fault_injector.trip_code = code;
      DynamicContext ctx;
      EXPECT_EQ(RunQuery("count(for $i in 1 to 100000 return $i + 0)", opts, &ctx),
                std::string("ERROR:") + code)
          << cfg.name << " " << code;
    }
  }
}

TEST(Guard, FaultInjectorFailsAllocation) {
  // Failing the Nth accounted allocation unwinds node construction
  // mid-build in every config (leak-free under ASan; see scripts/check.sh).
  for (const Config& cfg : AllConfigs()) {
    EngineOptions opts = cfg.opts;
    opts.fault_injector.fail_alloc_n = 5;
    DynamicContext ctx;
    EXPECT_EQ(RunQuery("<r>{for $i in 1 to 100 return <e>{$i}</e>}</r>", opts,
                  &ctx),
              "ERROR:XQC0003")
        << cfg.name;
  }
}

TEST(Guard, FaultInjectorTripsMidStream) {
  // A mid-stream trip delivers some items, then surfaces the injected
  // code; the stream must unwind cleanly with items still buffered.
  EngineOptions opts;
  opts.fault_injector.trip_check_n = 50;
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("for $x in 1 to 100000 return $x", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Item item;
  int delivered = 0;
  while (true) {
    Result<bool> has = rs.value().Next(&item);
    if (!has.ok()) {
      EXPECT_EQ(has.status().code(), kGuardCancelledCode);
      break;
    }
    ASSERT_TRUE(has.value()) << "stream ended before the injected trip";
    delivered++;
    ASSERT_LT(delivered, 100000);
  }
  EXPECT_GT(delivered, 0);
}

// ---------------------------------------------------------------------------
// Batched-execution parity. batch_size=1 pulls one tuple per call through
// the same operators (the oracle); larger batches amortize virtual
// dispatch but must trip the same guard faults at the same logical step,
// account the same memory, and honor cancellation with the same latency.
// ---------------------------------------------------------------------------

TEST(Guard, BatchedTripParityWithOracle) {
  // Every injected trip point must produce a byte-identical outcome
  // (same items delivered or same error code) at batch 1 and batch 1024:
  // NextBatch credits guard steps per tuple, never per batch, so the Nth
  // slow-path check fires at the same logical step either way.
  const char* kQueries[] = {
      "count(for $i in 1 to 100000 return $i + 0)",
      "count(for $i in 1 to 300 where $i mod 3 = 0 return $i)",
      "count(for $a in 1 to 200, $b in 1 to 200 where $a = $b return $a)",
      "string-join(for $i in 1 to 500 return string($i), \",\")",
  };
  for (const char* query : kQueries) {
    for (int64_t trip_n : {1, 2, 3, 5, 17, 50, 200}) {
      std::string oracle;
      for (int batch : {1, 1024}) {
        EngineOptions opts;
        opts.batch_size = batch;
        opts.fault_injector.trip_check_n = trip_n;
        opts.fault_injector.trip_code = kGuardStepsCode;
        DynamicContext ctx;
        std::string got = RunQuery(query, opts, &ctx);
        if (batch == 1) {
          oracle = got;
        } else {
          EXPECT_EQ(got, oracle)
              << "trip_check_n=" << trip_n << " query: " << query;
        }
      }
    }
  }
}

TEST(Guard, BatchedAllocationFaultParity) {
  // fail_alloc_n targets the Nth accounted allocation. Batched operators
  // keep the oracle's per-tuple Account* call granularity, so the same
  // allocation fails — same code, same partial work torn down.
  const char* kQueries[] = {
      "<r>{for $i in 1 to 100 return <e>{$i}</e>}</r>",
      "count(for $a in (1,2,3), $b in 1 to 50 where $a <= $b return $b)",
  };
  for (const char* query : kQueries) {
    for (int64_t alloc_n : {1, 2, 5, 20, 60}) {
      std::string oracle;
      for (int batch : {1, 1024}) {
        EngineOptions opts;
        opts.batch_size = batch;
        opts.fault_injector.fail_alloc_n = alloc_n;
        DynamicContext ctx;
        std::string got = RunQuery(query, opts, &ctx);
        if (batch == 1) {
          oracle = got;
        } else {
          EXPECT_EQ(got, oracle)
              << "fail_alloc_n=" << alloc_n << " query: " << query;
        }
      }
    }
  }
}

TEST(Guard, BatchedEarlyExitMemoryParity) {
  // Early-exit consumers (exists, [1], quantifiers, subsequence) must not
  // cause a batched pipeline to pull ahead of demand: peak accounted
  // memory — a proxy for work actually performed — matches the oracle.
  const char* kQueries[] = {
      "exists(for $i in 1 to 100000 return <e>{$i}</e>)",
      "string((for $i in 1 to 100000 return <e>{$i}</e>)[1])",
      "some $i in 1 to 100000 satisfies $i = 40",
      "count(subsequence(for $i in 1 to 100000 return <e>{$i}</e>, 2, 4))",
  };
  for (const char* query : kQueries) {
    ExecStats oracle;
    for (int batch : {1, 1024}) {
      EngineOptions opts;
      opts.batch_size = batch;
      Engine engine;
      Result<PreparedQuery> q = engine.Prepare(query, opts);
      ASSERT_OK(q);
      DynamicContext ctx;
      ASSERT_OK(q.value().ExecuteToString(&ctx));
      const ExecStats& s = q.value().last_exec_stats();
      if (batch == 1) {
        oracle = s;
      } else {
        EXPECT_EQ(s.peak_memory_bytes, oracle.peak_memory_bytes) << query;
        EXPECT_EQ(s.guard_steps, oracle.guard_steps) << query;
        EXPECT_EQ(s.guard_checks, oracle.guard_checks) << query;
        EXPECT_EQ(s.streaming_early_stops, oracle.streaming_early_stops)
            << query;
      }
    }
  }
}

TEST(Guard, BatchedNoBudgetLeakAcrossExecutions) {
  // Each execution runs under a fresh ScopedGuard; batch buffers
  // abandoned by an early exit or a dropped mid-stream cursor must not
  // leak accounted budget into later executions. Re-running under a
  // tight memory limit stays within budget every time, and the peak
  // reported by the last run equals the first run's.
  EngineOptions opts;
  opts.batch_size = 1024;
  // Roomy enough for one execution (the `1 to 100000` source range is
  // materialized at Open, ~4.8MB accounted) but far too small for even
  // two executions' worth of leaked accounting.
  opts.limits.max_memory_bytes = 8 << 20;
  Engine engine;
  Result<PreparedQuery> early = engine.Prepare(
      "exists(for $i in 1 to 100000 return <e>{$i}</e>)", opts);
  ASSERT_OK(early);
  DynamicContext ctx;
  int64_t first_peak = -1;
  for (int run = 0; run < 20; run++) {
    Result<std::string> r = early.value().ExecuteToString(&ctx);
    // A trip here means accounted memory leaked across executions.
    ASSERT_OK(r);
    EXPECT_EQ(r.value(), "true");
    int64_t peak = early.value().last_exec_stats().peak_memory_bytes;
    if (run == 0) {
      first_peak = peak;
    } else {
      EXPECT_EQ(peak, first_peak) << "run " << run;
    }
  }
  // Abandon a batched stream mid-way, repeatedly; the dropped cursor's
  // buffered tuples must be released with its guard, not carried over.
  Result<PreparedQuery> streamed =
      engine.Prepare("for $i in 1 to 100000 return <e>{$i}</e>", opts);
  ASSERT_OK(streamed);
  for (int run = 0; run < 20; run++) {
    Result<ResultStream> rs = streamed.value().ExecuteStream(&ctx);
    ASSERT_OK(rs);
    Item item;
    for (int i = 0; i < 5; i++) {
      Result<bool> has = rs.value().Next(&item);
      ASSERT_OK(has);
      ASSERT_TRUE(has.value());
    }
    // rs drops here with ~99995 tuples unconsumed.
  }
  Result<std::string> after = early.value().ExecuteToString(&ctx);
  ASSERT_OK(after);
  EXPECT_EQ(early.value().last_exec_stats().peak_memory_bytes, first_peak);
}

TEST(Guard, BatchedMidStreamCancellationLatency) {
  // The result cursor always pulls tuple-at-a-time regardless of
  // batch_size, so cancellation is honored on the very next pull — a
  // batched pipeline must not have buffered the rest of the stream.
  EngineOptions opts;
  opts.batch_size = 1024;
  opts.cancel = CancellationToken::Make();
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("for $x in 1 to 100000 return $x", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Item item;
  for (int i = 0; i < 10; i++) {
    Result<bool> has = rs.value().Next(&item);
    ASSERT_OK(has);
    ASSERT_TRUE(has.value());
  }
  opts.cancel.RequestCancel();
  Result<bool> has = rs.value().Next(&item);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), "XQC0002");
}

TEST(Guard, StatsReportGuardActivity) {
  EngineOptions opts;
  opts.limits.deadline_ms = 60000;
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("count(for $i in 1 to 100000 return <e/>)", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<Sequence> r = q.value().Execute(&ctx);
  ASSERT_OK(r);
  const ExecStats& es = q.value().last_exec_stats();
  EXPECT_GT(es.guard_checks, 0);
  EXPECT_GT(es.peak_memory_bytes, 0);
}

TEST(Guard, StreamStatsReportGuardActivity) {
  EngineOptions opts;
  opts.limits.deadline_ms = 60000;
  Engine engine;
  Result<PreparedQuery> q =
      engine.Prepare("for $x in 1 to 100000 return $x", opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  Result<ResultStream> rs = q.value().ExecuteStream(&ctx);
  ASSERT_OK(rs);
  Result<Sequence> all = rs.value().Drain();
  ASSERT_OK(all);
  EXPECT_EQ(all.value().size(), 100000u);
  EXPECT_GT(rs.value().stats().guard_checks, 0);
}

TEST(Guard, GuardedXmlParseHonorsBudget) {
  // Document parsing accounts constructed nodes, so a tight budget bounds
  // materialization of a large document (the same path fn:doc uses —
  // DynamicContext::ResolveDocument forwards the installed query guard).
  std::string xml = "<r>";
  for (int i = 0; i < 20000; i++) xml += "<e>text</e>";
  xml += "</r>";
  GuardLimits limits;
  limits.max_memory_bytes = 1 << 20;  // 1 MiB << 20k nodes
  QueryGuard guard(limits);
  XmlParseOptions options;
  options.guard = &guard;
  Result<NodePtr> r = ParseXml(xml, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0003");
  // The same document parses fine without a budget.
  EXPECT_OK(ParseXml(xml));
}

TEST(Guard, DocumentIndexBuildHonorsGuard) {
  // Lazy structural-index construction (PR 4) runs under the requesting
  // query's guard: a trip during the build aborts it, and the failed
  // build is NOT published — the next query retries and succeeds.
  std::string xml = "<r>";
  for (int i = 0; i < 1000; i++) xml += "<e/>";
  xml += "</r>";
  NodePtr doc = testutil::MustParseXml(xml);

  GuardFaultInjector inject;
  inject.trip_check_n = 1;
  inject.trip_code = kGuardCancelledCode;
  QueryGuard tripped(GuardLimits{}, CancellationToken(), inject);
  Result<const DocumentIndex*> r =
      GetOrBuildDocumentIndex(doc.get(), &tripped);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0002");

  QueryGuard clean;
  Result<const DocumentIndex*> ok = GetOrBuildDocumentIndex(doc.get(), &clean);
  ASSERT_OK(ok);
  EXPECT_NE(ok.value(), nullptr);
}

TEST(Guard, DocumentIndexBuildHonorsMemoryBudget) {
  // The guard's memory budget also covers index construction: a budget
  // that admits the parse but not the index trips with XQC0003.
  std::string xml = "<r>";
  for (int i = 0; i < 2000; i++) xml += "<e/>";
  xml += "</r>";
  NodePtr doc = testutil::MustParseXml(xml);

  GuardLimits limits;
  limits.max_memory_bytes = 1;
  QueryGuard tight(limits);
  Result<const DocumentIndex*> r = GetOrBuildDocumentIndex(doc.get(), &tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0003");

  QueryGuard clean;
  EXPECT_OK(GetOrBuildDocumentIndex(doc.get(), &clean));
}

TEST(Guard, GuardedXmlParseHonorsCancellation) {
  std::string xml = "<r>";
  for (int i = 0; i < 20000; i++) xml += "<e>text</e>";
  xml += "</r>";
  CancellationToken cancel = CancellationToken::Make();
  cancel.RequestCancel();
  QueryGuard guard(GuardLimits{}, cancel);
  XmlParseOptions options;
  options.guard = &guard;
  Result<NodePtr> r = ParseXml(xml, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0002");
}

// ---------------------------------------------------------------------------
// ParallelGuard: partitioned execution (src/runtime/parallel.cc) splits the
// parent guard's *remaining* budget across per-partition worker guards and
// re-charges the parent at recombination. Whatever limit trips, the trip code
// must match the serial run — the guard contract is parallelism-agnostic.
// ---------------------------------------------------------------------------

class ParallelGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xqc_parallel_guard_test";
    std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
    for (int d = 0; d < 4; d++) {
      std::string body = "<doc>";
      for (int i = 0; i < 200; i++) {
        body += "<item id=\"" + std::to_string(d * 200 + i) + "\"/>";
      }
      body += "</doc>";
      std::ofstream out(dir_ + "/d" + std::to_string(d) + ".xml",
                        std::ios::trunc);
      out << body;
    }
    query_ = "for $i in fn:collection(\"" + dir_ +
             "\")//item return string($i/@id)";
  }
  void TearDown() override { std::system(("rm -rf " + dir_).c_str()); }

  // Runs at a parallelism level; "" on success, the code on error.
  std::string Trip(const EngineOptions& opts) {
    Engine engine;
    Result<PreparedQuery> q = engine.Prepare(query_, opts);
    EXPECT_OK(q);
    DynamicContext ctx;
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    return r.ok() ? "" : r.status().code();
  }

  std::string dir_;
  std::string query_;
};

TEST_F(ParallelGuardTest, StepQuotaTripsIdenticallyAcrossParallelism) {
  EngineOptions serial;
  serial.limits.max_eval_steps = 100;  // far below what the scan needs
  ASSERT_EQ(Trip(serial), "XQC0006");
  for (int n : {2, 4}) {
    EngineOptions par = serial;
    par.parallelism = n;
    EXPECT_EQ(Trip(par), "XQC0006") << "parallelism " << n;
  }
  // A generous quota passes everywhere (workers + recombination re-charge
  // stay within the parent's budget).
  EngineOptions roomy;
  roomy.limits.max_eval_steps = 50'000'000;
  ASSERT_EQ(Trip(roomy), "");
  for (int n : {2, 4}) {
    EngineOptions par = roomy;
    par.parallelism = n;
    EXPECT_EQ(Trip(par), "") << "parallelism " << n;
  }
}

TEST_F(ParallelGuardTest, MemoryBudgetTripsIdenticallyAcrossParallelism) {
  EngineOptions serial;
  serial.limits.max_memory_bytes = 2048;  // far below the corpus trees
  ASSERT_EQ(Trip(serial), "XQC0003");
  for (int n : {2, 4}) {
    EngineOptions par = serial;
    par.parallelism = n;
    EXPECT_EQ(Trip(par), "XQC0003") << "parallelism " << n;
  }
}

TEST_F(ParallelGuardTest, PreCancelledTokenTripsIdenticallyAcrossParallelism) {
  for (int n : {1, 2, 4}) {
    EngineOptions opts;
    opts.parallelism = n;
    opts.cancel = CancellationToken::Make();
    opts.cancel.RequestCancel();
    EXPECT_EQ(Trip(opts), "XQC0002") << "parallelism " << n;
  }
}

TEST_F(ParallelGuardTest, MidRunCancellationIsHonoredPromptly) {
  // A deliberately slow partitioned query (a quadratic join inside the
  // per-tuple work): cancel from another thread shortly after launch and
  // require prompt teardown — the driver polls the parent guard in 1ms
  // slices and broadcasts to the workers' shared abort token.
  query_ = "for $i in fn:collection(\"" + dir_ +
           "\")//item return count(for $a in 1 to 2000, $b in 1 to 2000 "
           "return 1)";
  EngineOptions opts;
  opts.parallelism = 4;
  opts.cancel = CancellationToken::Make();
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(query_, opts);
  ASSERT_OK(q);
  DynamicContext ctx;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    opts.cancel.RequestCancel();
  });
  auto start = std::chrono::steady_clock::now();
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), "XQC0002");
  // Generous bound (slow CI boxes): the uncancelled query takes many
  // seconds; prompt teardown finishes well under two.
  EXPECT_LT(elapsed, 2000) << "cancellation latency too high";
}

TEST_F(ParallelGuardTest, DeadlineTripsAcrossParallelismWithoutHanging) {
  query_ = "for $i in fn:collection(\"" + dir_ +
           "\")//item return count(for $a in 1 to 2000, $b in 1 to 2000 "
           "return 1)";
  for (int n : {1, 4}) {
    EngineOptions opts;
    opts.parallelism = n;
    opts.limits.deadline_ms = 50;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(Trip(opts), "XQC0001") << "parallelism " << n;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_LT(elapsed, 2000) << "parallelism " << n;
  }
}

// The same contract on a driving-scan split: Clio N4 over the 250 KB DBLP
// document fans its 150 authorinfo rows out as units, each charging its
// own guard slice, re-charged to the parent at recombination.
class ParallelGuardSplitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dblp_ = new NodePtr(GenerateDblpDocument(ClioOptions{}).take());
  }
  static void TearDownTestSuite() { delete dblp_; }

  // Runs N4; "" on success, the code on error.
  static std::string Trip(const EngineOptions& opts,
                          ExecStats* stats = nullptr) {
    Result<PreparedQuery> q = Engine().Prepare(ClioQuery(4), opts);
    EXPECT_OK(q);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("dblp"), {Item(*dblp_)});
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (stats != nullptr) *stats = q.value().last_exec_stats();
    return r.ok() ? "" : r.status().code();
  }

  static NodePtr* dblp_;
};

NodePtr* ParallelGuardSplitTest::dblp_ = nullptr;

TEST_F(ParallelGuardSplitTest, QuotasTripWithTheSerialCodesOnSplitN4) {
  ExecStats full;
  ASSERT_EQ(Trip(EngineOptions{}, &full), "");
  EngineOptions split;
  split.parallelism = 4;
  ExecStats split_stats;
  ASSERT_EQ(Trip(split, &split_stats), "");
  ASSERT_GT(split_stats.parallel_partitions, 1);
  // Half the budget the whole query needs: the driver's scan and builds
  // fit, the units' rows do not.
  for (int n : {1, 2, 4}) {
    EngineOptions steps;
    steps.parallelism = n;
    steps.limits.max_eval_steps = full.guard_steps / 2;
    EXPECT_EQ(Trip(steps), "XQC0006") << "parallelism " << n;
    EngineOptions memory;
    memory.parallelism = n;
    memory.limits.max_memory_bytes = full.peak_memory_bytes / 2;
    EXPECT_EQ(Trip(memory), "XQC0003") << "parallelism " << n;
  }
}

TEST_F(ParallelGuardSplitTest, CancellationAndDeadlineTripOnSplitN4) {
  for (int n : {1, 2, 4}) {
    EngineOptions pre;
    pre.parallelism = n;
    pre.cancel = CancellationToken::Make();
    pre.cancel.RequestCancel();
    EXPECT_EQ(Trip(pre), "XQC0002") << "parallelism " << n;

    // Cancelled while the units run.
    EngineOptions mid;
    mid.parallelism = n;
    mid.cancel = CancellationToken::Make();
    Result<PreparedQuery> q = Engine().Prepare(ClioQuery(4), mid);
    ASSERT_OK(q);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("dblp"), {Item(*dblp_)});
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      mid.cancel.RequestCancel();
    });
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    canceller.join();
    ASSERT_FALSE(r.ok()) << "parallelism " << n;
    EXPECT_EQ(r.status().code(), "XQC0002") << "parallelism " << n;

    EngineOptions deadline;
    deadline.parallelism = n;
    deadline.limits.deadline_ms = 3;
    EXPECT_EQ(Trip(deadline), "XQC0001") << "parallelism " << n;
  }
}

}  // namespace
}  // namespace xqc
