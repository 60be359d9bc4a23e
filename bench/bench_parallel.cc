// Intra-query parallelism benchmarks (src/runtime/parallel.cc), swept over
// --parallelism levels: fn:collection scans partitioned by document, and
// the Clio N2-N4 mapping queries, whose flat join / GroupBy plans are cut
// by row ranges of their driving authorinfo scan.
//
// The corpus is a directory of XMark-style documents (one per member,
// distinct seeds) materialized once into a temp dir; each benchmark
// prepares its query once and times repeated executions at parallelism
// {1, 2, 4, 8}. Parallelism/1 is the serial oracle; every timed run is
// byte-verified against it, so the scaling curve is only reported for
// executions that are provably result-identical.
//
// Expected shapes:
//  - the flat scan + serialize is merge/IO-bound and shows the partition
//    and recombination overhead floor;
//  - the predicate scan gives each partition real per-item work, the
//    favourable case for doc-granular parallelism;
//  - the Clio join plans (Table 5's 250 KB DBLP document) split one driving
//    scan: the build sides are evaluated once on the driver, the per-row
//    probes, GroupBys and constructors run in the units.
//
// On a single-core host the curve is expected to be FLAT (slightly below
// 1x from partition bookkeeping): the interesting acceptance criterion
// there is graceful degradation, not speedup. scripts/bench_parallel.sh
// runs this with JSON output into BENCH_parallel.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>

#include "bench/bench_util.h"
#include "src/clio/clio.h"
#include "src/runtime/context.h"
#include "src/store/document_store.h"
#include "src/xmark/xmark.h"

namespace xqc {
namespace {

constexpr int kCorpusDocs = 6;
constexpr size_t kMemberBytes = 64 * 1024;

/// Materializes the multi-document corpus once; returns its directory.
const std::string& CorpusDir() {
  static const std::string dir = [] {
    std::string d = "/tmp/xqc_bench_parallel_corpus";
    std::system(("rm -rf " + d + " && mkdir -p " + d).c_str());
    for (int i = 0; i < kCorpusDocs; i++) {
      XMarkOptions xo;
      xo.seed = 7000 + static_cast<uint64_t>(i);
      xo.target_bytes = bench::Scaled(kMemberBytes);
      char name[32];
      std::snprintf(name, sizeof(name), "m%02d.xml", i);
      std::ofstream out(d + "/" + name, std::ios::trunc);
      out << GenerateXMarkXml(xo);
    }
    return d;
  }();
  return dir;
}

/// Prepares `query` at `parallelism`, byte-verifies one execution against
/// the serial oracle, then times repeated runs. `bind` (optional) installs
/// variable bindings into each execution's context.
void RunParallel(::benchmark::State& state, const std::string& query,
                 int parallelism,
                 const std::function<void(DynamicContext*)>& bind = {}) {
  // One store per benchmark invocation, shared across levels via the
  // process-wide tree cache being per-store: every timed execution runs
  // against warm documents, so parse cost is excluded from the curve.
  static DocumentStore store;
  EngineOptions opts;
  opts.parallelism = parallelism;
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(query, opts);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  EngineOptions serial_opts;
  Result<PreparedQuery> oracle_q = engine.Prepare(query, serial_opts);
  DynamicContext octx;
  octx.set_document_store(&store);
  if (bind) bind(&octx);
  Result<std::string> oracle = oracle_q.value().ExecuteToString(&octx);
  if (!oracle.ok()) {
    state.SkipWithError(oracle.status().ToString().c_str());
    return;
  }
  {
    // Byte-verify before timing: a wrong parallel result must fail the
    // benchmark loudly instead of reporting a meaningless speedup.
    DynamicContext vctx;
    vctx.set_document_store(&store);
    if (bind) bind(&vctx);
    Result<std::string> got = q.value().ExecuteToString(&vctx);
    if (!got.ok() || got.value() != oracle.value()) {
      state.SkipWithError("parallel result differs from the serial oracle");
      return;
    }
  }
  int64_t items = 0;
  for (auto _ : state) {
    DynamicContext ctx;
    ctx.set_document_store(&store);
    if (bind) bind(&ctx);
    Result<Sequence> r = q.value().Execute(&ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    items += static_cast<int64_t>(r.value().size());
    ::benchmark::DoNotOptimize(r.value().data());
  }
  state.SetItemsProcessed(items);
  const ExecStats& es = q.value().last_exec_stats();
  state.counters["partitions"] =
      static_cast<double>(es.parallel_partitions);
  state.counters["steals"] = static_cast<double>(es.parallel_steals);
  state.counters["fallbacks"] = static_cast<double>(es.parallel_fallbacks);
}

void BM_CollectionFlatScan(::benchmark::State& state) {
  RunParallel(state,
              "for $i in fn:collection(\"" + CorpusDir() +
                  "\")//item return string($i/@id)",
              static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CollectionFlatScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CollectionPredicateScan(::benchmark::State& state) {
  // Real per-item work inside each partition: every bidder's increase is
  // parsed and compared, so partitions do arithmetic, not just plumbing.
  RunParallel(state,
              "for $b in fn:collection(\"" + CorpusDir() +
                  "\")//bidder "
                  "where number($b/increase) > 10 return string($b/date)",
              static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CollectionPredicateScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ClioJoinPlan(::benchmark::State& state) {
  // Args: (nesting level 2..4, parallelism). The 250 KB DBLP document of
  // Table 5, generated once.
  static const NodePtr* dblp = [] {
    ClioOptions co;
    co.target_bytes = bench::Scaled(250 * 1024);
    return new NodePtr(GenerateDblpDocument(co).take());
  }();
  RunParallel(state, ClioQuery(static_cast<int>(state.range(0))),
              static_cast<int>(state.range(1)), [](DynamicContext* ctx) {
                ctx->BindVariable(Symbol("dblp"), {Item(*dblp)});
              });
}
BENCHMARK(BM_ClioJoinPlan)
    ->ArgsProduct({{2, 3, 4}, {1, 2, 4}})
    ->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace xqc

BENCHMARK_MAIN();
