// Golden ExecStats for the paper's queries: XMark Q1-Q20 over a 256 KB
// auction document (Table 3) and Clio N2-N4 over a 250 KB DBLP document
// (Table 5), each in streaming and materializing mode. The counters are
// deterministic for a given document, so any change to how the runtime
// steps the guard, accounts memory, pulls source tuples, picks joins,
// copies constructor content or discharges document order shows up as a
// diff of tests/golden/paper_exec_stats.txt. The last three columns are
// per query, not per execution: the number of Figure 5 rewrites that
// fired, the operators in the optimized plan (main plan, globals and
// functions), and the serialized result's bytes. On a mismatch the test
// prints the whole actual table; a change that moves a counter on purpose
// replaces the file with it and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/clio/clio.h"
#include "src/engine/engine.h"
#include "src/xmark/xmark.h"
#include "test_util.h"

namespace xqc {
namespace {

const char kGoldenPath[] = XQC_TEST_DATA_DIR "/golden/paper_exec_stats.txt";

const char kHeader[] =
    "# query mode guard_steps guard_checks peak_memory_bytes source_tuples "
    "early_stops hash_joins sort_joins range_joins nested_loop_joins "
    "group_bys composite_joins join_index_reuses specialized_joins "
    "nodes_copied nodes_adopted ddo_sorts ddo_dedups ddo_skip_static "
    "ddo_skip_singleton ddo_skip_verified index_lookups rewrites plan_ops "
    "result_bytes";

int64_t CountOps(const Op& op) {
  int64_t n = 1;
  for (const OpPtr& c : op.inputs) n += c ? CountOps(*c) : 0;
  for (const OpPtr& c : op.deps) n += c ? CountOps(*c) : 0;
  return n;
}

int64_t CountPlanOps(const CompiledQuery& q) {
  int64_t n = CountOps(*q.plan);
  for (const auto& [name, plan] : q.globals) n += plan ? CountOps(*plan) : 0;
  for (const auto& [name, fn] : q.functions) n += CountOps(*fn.plan);
  return n;
}

int64_t RewriteCount(const OptimizerStats& s) {
  return s.remove_map + s.insert_product + s.insert_join + s.insert_group_by +
         s.map_through_group_by + s.remove_duplicate_null +
         s.insert_outer_join + s.lift_product + s.outer_map_through_group_by +
         s.push_outer_map + s.split_select + s.index_to_index_step +
         s.fuse_path_step + s.collapse_descendant;
}

std::string Row(const std::string& query, ExecMode mode,
                const PreparedQuery& q, size_t result_bytes) {
  const ExecStats s = q.last_exec_stats();
  std::ostringstream out;
  out << query << ' '
      << (mode == ExecMode::kStreaming ? "stream" : "mat");
  for (int64_t v :
       {s.guard_steps, s.guard_checks, s.peak_memory_bytes, s.source_tuples,
        s.streaming_early_stops, s.hash_joins, s.sort_joins, s.range_joins,
        s.nested_loop_joins, s.group_bys, s.composite_joins,
        s.join_index_reuses, s.specialized_joins, s.nodes_copied,
        s.nodes_adopted, s.tree_join.ddo_sorts, s.tree_join.ddo_dedups,
        s.tree_join.ddo_skip_static, s.tree_join.ddo_skip_singleton,
        s.tree_join.ddo_skip_verified, s.tree_join.index_lookups,
        RewriteCount(q.optimizer_stats()), CountPlanOps(q.compiled()),
        static_cast<int64_t>(result_bytes)}) {
    out << ' ' << v;
  }
  return out.str();
}

/// Runs `query` in both modes against `ctx` and appends one row per mode.
void AddRows(const std::string& label, const std::string& query,
             DynamicContext* ctx, std::vector<std::string>* rows) {
  Engine engine;
  for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialize}) {
    EngineOptions opts;
    opts.exec_mode = mode;
    Result<PreparedQuery> q = engine.Prepare(query, opts);
    ASSERT_OK(q);
    Result<std::string> result = q.value().ExecuteToString(ctx);
    ASSERT_OK(result);
    rows->push_back(Row(label, mode, q.value(), result.value().size()));
  }
}

/// Builds the per-document structural index up front: its one-time cost is
/// guard-accounted by whichever execution triggers it, which would tie a
/// row's peak_memory_bytes to the order the queries run in.
void WarmIndex(const std::string& var, DynamicContext* ctx) {
  Engine engine;
  Result<std::string> r = engine.Execute(
      "declare variable $" + var + " external; count($" + var + "//*)", ctx);
  ASSERT_OK(r);
}

TEST(GoldenExecStats, PaperQueries) {
  std::vector<std::string> rows;
  {
    XMarkOptions opts;
    opts.target_bytes = 256 * 1024;
    Result<NodePtr> doc = GenerateXMarkDocument(opts);
    ASSERT_OK(doc);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("auction"), {Item(doc.value())});
    WarmIndex("auction", &ctx);
    for (int n = 1; n <= 20; n++) {
      AddRows("Q" + std::to_string(n), XMarkQuery(n), &ctx, &rows);
    }
  }
  {
    ClioOptions opts;
    opts.target_bytes = 250 * 1024;
    Result<NodePtr> doc = GenerateDblpDocument(opts);
    ASSERT_OK(doc);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("dblp"), {Item(doc.value())});
    WarmIndex("dblp", &ctx);
    for (int level : {2, 3, 4}) {
      AddRows("N" + std::to_string(level), ClioQuery(level), &ctx, &rows);
    }
  }
  std::string actual = std::string(kHeader) + "\n";
  for (const std::string& r : rows) actual += r + "\n";

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "cannot read " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "ExecStats differ from " << kGoldenPath << ". Actual table:\n"
      << actual;
}

}  // namespace
}  // namespace xqc
