// Batched (vectorized) iterator execution benchmarks.
//
// The engine's iterators — scan, select, map/projection, MapConcat,
// MapFromItem, joins — hand full consumers tuples in batches of
// EngineOptions::batch_size (default 1024). Batching amortizes the
// per-tuple iterator-layer costs: virtual dispatch through the operator
// tree, QueryGuard::Check() bookkeeping (CheckSteps(n) credits a whole
// batch at once), and Tuple hand-off between operators. batch_size=1 runs
// the same operator code one tuple per pull and is the parity oracle the
// tests compare against.
//
// Each query is prepared once and only execution is timed (Prepare cost
// is identical across batch sizes and would otherwise drown the
// per-tuple signal); tuples_per_second makes the per-tuple overhead
// comparable across shapes. Expected shapes:
//  - the long integer filter pipeline is plumbing-heavy (cheap
//    predicate, millions of tuples) and shows the dispatch + guard
//    amortization most directly;
//  - node-heavy selects bound the win: per-tuple predicate evaluation
//    (an attribute walk + cast) dominates, and very large batches add
//    cache-reuse distance — the sweep shows the 64-256 sweet spot;
//  - the descendant pipeline exercises the batched TreeJoin / MapToItem
//    plumbing around the already-vectorized axis kernels;
//  - the early-exit query ([1] over a wide scan) must NOT regress:
//    demand-bound clamping keeps batched pulls equal to the oracle's.
//
// scripts/bench_batch.sh runs this with JSON output into BENCH_batch.json.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/xml/xml_parser.h"

namespace xqc {
namespace {

constexpr size_t kWideItems = 50000;
constexpr size_t kRangeLen = 500000;

NodePtr MustParse(const std::string& xml) {
  Result<NodePtr> r = ParseXml(xml);
  if (!r.ok()) std::abort();
  return r.value();
}

/// Wide flat document: one <item> per row with a small key domain, the
/// shape that keeps streaming pipelines long and per-tuple costs visible.
NodePtr WideDoc() {
  static const NodePtr doc = [] {
    std::string s = "<doc>";
    size_t n = bench::Scaled(kWideItems);
    for (size_t i = 0; i < n; i++) {
      s += "<item k=\"" + std::to_string(i % 97) + "\"><v>" +
           std::to_string(i) + "</v></item>";
    }
    s += "</doc>";
    return MustParse(s);
  }();
  return doc;
}

/// Prepares `query` once at the benchmark's batch size, then times
/// repeated executions, reporting tuples/second over `tuples` per run.
void RunBatched(::benchmark::State& state, const std::string& query,
                double tuples) {
  int batch = static_cast<int>(state.range(0));
  EngineOptions opts;
  opts.batch_size = batch;
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "declare variable $doc external; " + query, opts);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  DynamicContext ctx;
  ctx.BindVariable(Symbol("doc"), {Item(WideDoc())});
  // Warm once outside the timed loop so the lazy document index build is
  // not charged to the first batch size measured.
  Result<std::string> warm = q.value().ExecuteToString(&ctx);
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    ::benchmark::DoNotOptimize(r.value().size());
  }
  state.counters["tuples_per_second"] = ::benchmark::Counter(
      tuples * static_cast<double>(state.iterations()),
      ::benchmark::Counter::kIsRate);
  state.SetLabel("batch=" + std::to_string(batch));
}

#define BATCH_ARGS Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)

/// Plumbing-heavy pipeline: a long integer scan through a cheap filter.
/// Per-tuple evaluation is a mod + compare, so iterator dispatch and
/// guard bookkeeping are a visible share of the per-tuple cost.
void BM_IntFilterPipeline(::benchmark::State& state) {
  RunBatched(state,
             "count(for $i in 1 to " + std::to_string(kRangeLen) +
                 " where $i mod 2 = 0 return $i)",
             static_cast<double>(kRangeLen));
}
BENCHMARK(BM_IntFilterPipeline)->BATCH_ARGS;

/// Node-heavy select: the predicate walks to @k and casts per tuple, so
/// evaluation dominates and oversized batches pay cache-reuse distance.
void BM_NodeSelect(::benchmark::State& state) {
  RunBatched(state,
             "count(for $i in $doc/doc/item "
             "where xs:integer($i/@k) mod 3 = 0 return $i)",
             static_cast<double>(bench::Scaled(kWideItems)));
}
BENCHMARK(BM_NodeSelect)->BATCH_ARGS;

/// Descendant-axis pipeline: TreeJoin feeding aggregation through the
/// MapFromItem / MapToItem tuple plumbing.
void BM_DescendantPipeline(::benchmark::State& state) {
  RunBatched(state, "count($doc//v)",
             static_cast<double>(bench::Scaled(kWideItems)));
}
BENCHMARK(BM_DescendantPipeline)->BATCH_ARGS;

/// Join-heavy FLWOR: a value join on a small key domain. The build side
/// is materialized once (unaffected by batch size); the probe side and
/// the ~51-wide match groups stream through the batched JoinIter's
/// buffer-drain path.
void BM_HashJoinProbe(::benchmark::State& state) {
  static const NodePtr join_doc = [] {
    std::string s = "<doc>";
    size_t n = bench::Scaled(5000);
    for (size_t i = 0; i < n; i++) {
      s += "<item k=\"" + std::to_string(i % 97) + "\"><v>" +
           std::to_string(i) + "</v></item>";
    }
    s += "</doc>";
    return MustParse(s);
  }();
  int batch = static_cast<int>(state.range(0));
  EngineOptions opts;
  opts.batch_size = batch;
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "declare variable $doc external; "
      "count(for $a in $doc/doc/item, $b in $doc/doc/item "
      "where $a/@k = $b/@k return $b)",
      opts);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  DynamicContext ctx;
  ctx.BindVariable(Symbol("doc"), {Item(join_doc)});
  Result<std::string> warm = q.value().ExecuteToString(&ctx);
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  double outputs = atof(warm.value().c_str());
  for (auto _ : state) {
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    ::benchmark::DoNotOptimize(r.value().size());
  }
  state.counters["tuples_per_second"] = ::benchmark::Counter(
      outputs * static_cast<double>(state.iterations()),
      ::benchmark::Counter::kIsRate);
  state.SetLabel("batch=" + std::to_string(batch));
}
BENCHMARK(BM_HashJoinProbe)->BATCH_ARGS;

/// Nested FLWOR (MapConcat shape): an inner iteration re-opened per
/// outer tuple, stressing the outer-advance / inner-drain carry-over.
void BM_NestedFlwor(::benchmark::State& state) {
  RunBatched(state,
             "count(for $i in $doc/doc/item[position() <= 2000] "
             "for $j in $i/v return $j)",
             2000.0);
}
BENCHMARK(BM_NestedFlwor)->BATCH_ARGS;

/// Early exit: [1] over the wide scan. Batched demand-bound clamping
/// must keep this as cheap as the tuple-at-a-time oracle — flat across
/// batch sizes, not 1024x worse.
void BM_EarlyExitFirst(::benchmark::State& state) {
  RunBatched(state, "string(($doc/doc/item/v)[1])", 1.0);
}
BENCHMARK(BM_EarlyExitFirst)->BATCH_ARGS;

}  // namespace
}  // namespace xqc

BENCHMARK_MAIN();
