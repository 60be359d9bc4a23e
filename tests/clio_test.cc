// Clio substrate tests: generator structure, the N2/N3/N4 mapping queries
// differentially across configurations, and the unnesting behaviour the
// paper's Table 5 depends on (nested blocks inside constructors become
// GroupBy + join plans).
#include <gtest/gtest.h>

#include "src/clio/clio.h"
#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

TEST(ClioGenerator, DeterministicAndSized) {
  ClioOptions opts;
  opts.target_bytes = 64 * 1024;
  std::string a = GenerateDblpXml(opts);
  EXPECT_EQ(a, GenerateDblpXml(opts));
  EXPECT_GT(a.size(), opts.target_bytes / 2);
  EXPECT_LT(a.size(), opts.target_bytes * 2);
}

TEST(ClioGenerator, KeysAreConsistent) {
  ClioOptions opts;
  opts.target_bytes = 32 * 1024;
  Result<NodePtr> doc = GenerateDblpDocument(opts);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("dblp"), {Item(doc.value())});
  Engine engine;
  auto truth = [&](const std::string& body) {
    auto q = engine.Prepare("declare variable $dblp external; " + body);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto r = q.value().ExecuteToString(&ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : std::string();
  };
  // Every inproceedings booktitle has a proceedings entry for its year.
  EXPECT_EQ(truth("every $p in $dblp/dblp/inproceedings satisfies "
                  "exists($dblp/dblp/proceedings[booktitle = $p/booktitle]"
                  "[year = $p/year])"),
            "true");
  // Every paper author appears in the author registry.
  EXPECT_EQ(truth("every $p in $dblp/dblp/inproceedings/author satisfies "
                  "exists($dblp/dblp/authorinfo[name = $p/text()])"),
            "true");
  // Every proceedings publisher exists.
  EXPECT_EQ(truth("every $pr in $dblp/dblp/proceedings satisfies "
                  "exists($dblp/dblp/publisher[pname = $pr/pubname])"),
            "true");
}

class ClioQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    ClioOptions opts;
    opts.target_bytes = 24 * 1024;
    Result<NodePtr> doc = GenerateDblpDocument(opts);
    ASSERT_TRUE(doc.ok());
    doc_ = new NodePtr(doc.take());
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }
  static NodePtr* doc_;
};

NodePtr* ClioQueryTest::doc_ = nullptr;

TEST_P(ClioQueryTest, AllConfigsAgree) {
  int level = GetParam();
  DynamicContext ctx;
  ctx.BindVariable(Symbol("dblp"), {Item(*doc_)});
  Engine engine;
  const EngineOptions kConfigs[] = {
      {false, false, JoinImpl::kNestedLoop},
      {true, false, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kHash},
      {true, true, JoinImpl::kSort},
  };
  std::string reference;
  for (size_t i = 0; i < std::size(kConfigs); i++) {
    Result<PreparedQuery> q = engine.Prepare(ClioQuery(level), kConfigs[i]);
    ASSERT_TRUE(q.ok()) << "N" << level << ": " << q.status().ToString();
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_TRUE(r.ok()) << "N" << level << " config " << i << ": "
                        << r.status().ToString();
    if (i == 0) {
      reference = r.value();
    } else {
      ASSERT_EQ(r.value(), reference) << "N" << level << " config " << i;
    }
  }
  EXPECT_NE(reference.find("<authorDB>"), std::string::npos);
  EXPECT_NE(reference.find("<pubs>"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Mappings, ClioQueryTest, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "N" + std::to_string(info.param);
                         });

TEST(ClioPlans, NestedConstructorBlocksUnnestIntoJoins) {
  // The whole point of Table 5: Clio-style queries whose nested FLWORs sit
  // inside element constructors must still reach GroupBy + join plans.
  Engine engine;
  for (int level : {2, 3, 4}) {
    Result<PreparedQuery> q = engine.Prepare(ClioQuery(level));
    ASSERT_OK(q);
    std::string plan = q.value().ExplainPlan(false);
    EXPECT_NE(plan.find("GroupBy"), std::string::npos)
        << "N" << level << ": " << plan;
    EXPECT_NE(plan.find("LOuterJoin"), std::string::npos)
        << "N" << level << ": " << plan;
    const OptimizerStats& s = q.value().optimizer_stats();
    EXPECT_GE(s.insert_group_by, level - 1) << "N" << level;
    EXPECT_GE(s.insert_outer_join, 1) << "N" << level;
  }
  // N4 must produce strictly more joins than N2.
  Result<PreparedQuery> q2 = engine.Prepare(ClioQuery(2));
  Result<PreparedQuery> q4 = engine.Prepare(ClioQuery(4));
  ASSERT_OK(q2);
  ASSERT_OK(q4);
  EXPECT_GT(q4.value().optimizer_stats().insert_outer_join,
            q2.value().optimizer_stats().insert_outer_join);
}

TEST(ClioPlans, NestedBlocksRunAsFlatJoins) {
  // Figure 5 unnesting finished: no per-outer-tuple subplan is left, so
  // every join executes exactly once per query.
  ClioOptions opts;
  opts.target_bytes = 24 * 1024;
  Result<NodePtr> doc = GenerateDblpDocument(opts);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("dblp"), {Item(doc.value())});
  Engine engine;
  const int kJoins[] = {0, 0, 1, 2, 5};
  for (int level : {2, 3, 4}) {
    Result<PreparedQuery> q = engine.Prepare(ClioQuery(level));
    ASSERT_OK(q);
    testutil::UnnestShape shape = testutil::ShapeOf(*q.value().compiled().plan);
    std::string plan = q.value().ExplainPlan();
    EXPECT_EQ(shape.in_products, 0) << "N" << level << "\n" << plan;
    EXPECT_EQ(shape.nested_outer_maps, 0) << "N" << level << "\n" << plan;
    EXPECT_EQ(shape.joins, kJoins[level]) << "N" << level << "\n" << plan;
    ASSERT_OK(q.value().Execute(&ctx));
    EXPECT_EQ(q.value().last_exec_stats().hash_joins, kJoins[level])
        << "N" << level;
  }
  // N3/N4's booktitle-and-year join keys one composite index.
  Result<PreparedQuery> q3 = engine.Prepare(ClioQuery(3));
  ASSERT_OK(q3);
  ASSERT_OK(q3.value().Execute(&ctx));
  EXPECT_EQ(q3.value().last_exec_stats().composite_joins, 1);
}

TEST(ClioPlans, NestedResultsAreAdoptedNotCopied) {
  // Table 5's document size. Each inner block's result reaches its
  // enclosing constructor through one GroupBy field read that hands the
  // nodes over, so no constructor level copies them again. Adopted nodes
  // are charged like copies: peak_memory_bytes stays at the values of
  // always copying.
  ClioOptions opts;
  opts.target_bytes = 250 * 1024;
  Result<NodePtr> doc = GenerateDblpDocument(opts);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("dblp"), {Item(doc.value())});
  Engine engine;
  struct Expected {
    int level;
    int64_t nodes;  // constructor content nodes, formerly all copied
    int64_t peak_memory_bytes;
  };
  const Expected kExpected[] = {
      {2, 22976, 4513824}, {3, 29900, 5944736}, {4, 91334, 17732581}};
  for (const Expected& e : kExpected) {
    Result<PreparedQuery> q = engine.Prepare(ClioQuery(e.level));
    ASSERT_OK(q);
    ASSERT_OK(q.value().Execute(&ctx));
    const ExecStats& s = q.value().last_exec_stats();
    EXPECT_EQ(s.nodes_copied, 0) << "N" << e.level;
    EXPECT_EQ(s.nodes_adopted, e.nodes) << "N" << e.level;
    EXPECT_EQ(s.peak_memory_bytes, e.peak_memory_bytes) << "N" << e.level;
  }
}

TEST(ClioPlans, JoinKeySidesComeFromThePlan) {
  // Regression: join-key sides used to be read off the first left tuple,
  // so an author without papers first in the document (a null row leading
  // the flat outer joins) silently demoted joins to nested loops.
  ClioOptions opts;
  opts.target_bytes = 24 * 1024;
  std::string xml = GenerateDblpXml(opts);
  size_t at = xml.find("<authorinfo>");
  ASSERT_NE(at, std::string::npos);
  xml.insert(at,
             "<authorinfo><name>Nobody Wrote</name>"
             "<affiliation>Nowhere</affiliation></authorinfo>");
  NodePtr doc = testutil::MustParseXml(xml);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("dblp"), {Item(doc)});
  Engine engine;
  for (int level : {2, 3, 4}) {
    std::string reference = testutil::InterpToString(ClioQuery(level), &ctx);
    ASSERT_NE(reference.find("<name>Nobody Wrote</name><pubs/>"),
              std::string::npos)
        << "N" << level;
    for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialize}) {
      EngineOptions options;
      options.exec_mode = mode;
      Result<PreparedQuery> q = engine.Prepare(ClioQuery(level), options);
      ASSERT_OK(q);
      Result<std::string> r = q.value().ExecuteToString(&ctx);
      ASSERT_OK(r);
      EXPECT_EQ(r.value(), reference) << "N" << level;
      EXPECT_EQ(q.value().last_exec_stats().nested_loop_joins, 0)
          << "N" << level;
    }
  }
}

}  // namespace
}  // namespace xqc
