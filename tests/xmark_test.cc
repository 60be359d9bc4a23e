// XMark substrate tests: generator structure and determinism, and all
// twenty benchmark queries run differentially across engine configurations
// on a small document — plus the paper's Section 2 Q8 variant with schema
// validation.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/xmark/xmark.h"
#include "src/xml/xml_parser.h"
#include "test_util.h"

namespace xqc {
namespace {

TEST(XMarkGenerator, Deterministic) {
  XMarkOptions opts;
  opts.target_bytes = 32 * 1024;
  EXPECT_EQ(GenerateXMarkXml(opts), GenerateXMarkXml(opts));
  XMarkOptions other = opts;
  other.seed = 43;
  EXPECT_NE(GenerateXMarkXml(opts), GenerateXMarkXml(other));
}

TEST(XMarkGenerator, SizeScalesWithTarget) {
  XMarkOptions small, large;
  small.target_bytes = 64 * 1024;
  large.target_bytes = 256 * 1024;
  size_t s = GenerateXMarkXml(small).size();
  size_t l = GenerateXMarkXml(large).size();
  // Within 2x of the target and monotone.
  EXPECT_GT(s, small.target_bytes / 2);
  EXPECT_LT(s, small.target_bytes * 2);
  EXPECT_GT(l, large.target_bytes / 2);
  EXPECT_LT(l, large.target_bytes * 2);
  EXPECT_GT(l, 3 * s);
}

TEST(XMarkGenerator, ParsesAndHasExpectedStructure) {
  XMarkOptions opts;
  opts.target_bytes = 64 * 1024;
  Result<NodePtr> doc = GenerateXMarkDocument(opts);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("auction"), {Item(doc.value())});
  Engine engine;
  auto count = [&](const std::string& path) -> int64_t {
    auto q = engine.Prepare("declare variable $auction external; count(" +
                            path + ")");
    EXPECT_TRUE(q.ok());
    auto r = q.value().Execute(&ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value()[0].atomic().AsInt();
  };
  EXPECT_GT(count("$auction/site/people/person"), 10);
  EXPECT_GT(count("$auction/site/closed_auctions/closed_auction"), 5);
  EXPECT_GT(count("$auction/site/open_auctions/open_auction/bidder"), 5);
  EXPECT_GT(count("$auction/site/regions//item"), 10);
  EXPECT_GT(count("$auction/site/categories/category"), 3);
  // Every closed auction's buyer refers to an existing person.
  auto q = engine.Prepare(
      "declare variable $auction external; "
      "every $t in $auction/site/closed_auctions/closed_auction satisfies "
      "exists($auction/site/people/person[@id = $t/buyer/@person])");
  ASSERT_OK(q);
  auto r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "true");
}

class XMarkQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    XMarkOptions opts;
    opts.target_bytes = 48 * 1024;
    Result<NodePtr> doc = GenerateXMarkDocument(opts);
    ASSERT_TRUE(doc.ok());
    doc_ = new NodePtr(doc.take());
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }
  static NodePtr* doc_;
};

NodePtr* XMarkQueryTest::doc_ = nullptr;

TEST_P(XMarkQueryTest, AllConfigsAgree) {
  int n = GetParam();
  DynamicContext ctx;
  ctx.BindVariable(Symbol("auction"), {Item(*doc_)});
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
    Result<PreparedQuery> q = engine.Prepare(XMarkQuery(n), kConfigs[i]);
    ASSERT_TRUE(q.ok()) << "Q" << n << ": " << q.status().ToString();
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_TRUE(r.ok()) << "Q" << n << " config " << i << ": "
                        << r.status().ToString();
    if (i == 0) {
      reference = r.value();
    } else {
      ASSERT_EQ(r.value(), reference) << "Q" << n << " config " << i;
    }
  }
  // Sanity: queries on this document should not be trivially empty, except
  // those whose predicates may not match at tiny scale.
  if (n != 1 && n != 4) {
    EXPECT_FALSE(reference.empty()) << "Q" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwenty, XMarkQueryTest, ::testing::Range(1, 21),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(XMarkQ8VariantTest, SchemaTypesFlowThroughUnnesting) {
  XMarkOptions opts;
  opts.target_bytes = 48 * 1024;
  Result<NodePtr> doc = GenerateXMarkDocument(opts);
  ASSERT_OK(doc);
  Schema schema = XMarkSchema();
  DynamicContext ctx;
  ctx.set_schema(&schema);
  ctx.BindVariable(Symbol("auction"), {Item(doc.value())});

  Engine engine;
  const EngineOptions kConfigs[] = {
      {false, false, JoinImpl::kNestedLoop},
      {true, false, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kHash},
  };
  std::string reference;
  for (size_t i = 0; i < std::size(kConfigs); i++) {
    Result<PreparedQuery> q = engine.Prepare(XMarkQ8Variant(), kConfigs[i]);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_TRUE(r.ok()) << "config " << i << ": " << r.status().ToString()
                        << "\n" << q.value().ExplainPlan();
    if (i == 0) {
      reference = r.value();
    } else {
      ASSERT_EQ(r.value(), reference) << "config " << i;
    }
  }
  // The validated plan counts some US sellers somewhere.
  EXPECT_NE(reference.find("<item person="), std::string::npos);

  // The optimized plan must exhibit the paper's P2 shape: the type
  // operations stay inside the GroupBy and the join is an outer join.
  Result<PreparedQuery> q = engine.Prepare(XMarkQ8Variant());
  ASSERT_OK(q);
  std::string plan = q.value().ExplainPlan(false);
  EXPECT_NE(plan.find("GroupBy"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LOuterJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("TypeAssert[element(*,Auction)*]"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Validate"), std::string::npos) << plan;
}

TEST(XMarkPlans, Q9RunsAsFlatOuterJoins) {
  // Q9's per-person block holds an uncorrelated `for $t` (Product(IN, ..))
  // around a correlated one; once the product is lifted, both joins run
  // once per query instead of once per person.
  XMarkOptions opts;
  opts.target_bytes = 48 * 1024;
  Result<NodePtr> doc = GenerateXMarkDocument(opts);
  ASSERT_OK(doc);
  DynamicContext ctx;
  ctx.BindVariable(Symbol("auction"), {Item(doc.value())});
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(XMarkQuery(9));
  ASSERT_OK(q);
  testutil::UnnestShape shape = testutil::ShapeOf(*q.value().compiled().plan);
  std::string plan = q.value().ExplainPlan();
  EXPECT_EQ(shape.in_products, 0) << plan;
  EXPECT_EQ(shape.nested_outer_maps, 0) << plan;
  EXPECT_EQ(shape.joins, 2) << plan;
  EXPECT_GE(q.value().optimizer_stats().lift_product, 3);
  ASSERT_OK(q.value().Execute(&ctx));
  EXPECT_EQ(q.value().last_exec_stats().hash_joins, 2);
  EXPECT_EQ(q.value().last_exec_stats().nested_loop_joins, 0);
}

}  // namespace
}  // namespace xqc
