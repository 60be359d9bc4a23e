// End-to-end tests of the algebraic engine. Every query is executed in the
// paper's four configurations (Table 3) and differentially checked against
// the baseline interpreter oracle.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

const EngineOptions kConfigs[] = {
    {/*use_algebra=*/false, /*optimize=*/false, JoinImpl::kNestedLoop},
    {/*use_algebra=*/true, /*optimize=*/false, JoinImpl::kNestedLoop},
    {/*use_algebra=*/true, /*optimize=*/true, JoinImpl::kNestedLoop},
    {/*use_algebra=*/true, /*optimize=*/true, JoinImpl::kHash},
    {/*use_algebra=*/true, /*optimize=*/true, JoinImpl::kSort},
};

const char* ConfigName(size_t i) {
  static const char* kNames[] = {"no-algebra", "algebra-no-optim",
                                 "optim-nl-join", "optim-hash-join",
                                 "optim-sort-join"};
  return kNames[i];
}

/// Runs `query` in every configuration; all must agree (and agree with
/// `expected` if non-null).
void CheckAllConfigs(const std::string& query, DynamicContext* ctx,
                     const char* expected = nullptr) {
  Engine engine;
  std::string reference;
  for (size_t i = 0; i < std::size(kConfigs); i++) {
    Result<PreparedQuery> q = engine.Prepare(query, kConfigs[i]);
    ASSERT_TRUE(q.ok()) << ConfigName(i) << ": " << q.status().ToString()
                        << "\nquery: " << query;
    Result<std::string> r = q.value().ExecuteToString(ctx);
    ASSERT_TRUE(r.ok()) << ConfigName(i) << ": " << r.status().ToString()
                        << "\nquery: " << query
                        << "\nplan: " << q.value().ExplainPlan();
    if (i == 0) {
      reference = r.value();
      if (expected != nullptr) {
        EXPECT_EQ(reference, expected) << query;
      }
    } else {
      EXPECT_EQ(r.value(), reference)
          << ConfigName(i) << " disagrees with baseline\nquery: " << query
          << "\nplan: " << q.value().ExplainPlan();
    }
  }
}

void CheckAllConfigs(const std::string& query, const char* expected = nullptr) {
  DynamicContext ctx;
  CheckAllConfigs(query, &ctx, expected);
}

TEST(EngineBasics, ScalarsThroughAllConfigs) {
  CheckAllConfigs("1 + 2 * 3", "7");
  CheckAllConfigs("(1, 2, 3)", "1 2 3");
  CheckAllConfigs("\"a\"", "a");
  CheckAllConfigs("()", "");
  CheckAllConfigs("if (2 > 1) then \"y\" else \"n\"", "y");
  CheckAllConfigs("sum(1 to 100)", "5050");
}

TEST(EngineBasics, FLWOR) {
  CheckAllConfigs("for $x in (1,2,3) return $x * 10", "10 20 30");
  CheckAllConfigs("for $x in (1,2), $y in (10,20) return $x + $y",
                  "11 21 12 22");
  CheckAllConfigs(
      "for $x in 1 to 5 let $y := $x * $x where $y > 5 return $y", "9 16 25");
  CheckAllConfigs("for $x at $i in ('a','b','c') return $i", "1 2 3");
  // `at` on a non-leading for clause restarts per outer binding.
  CheckAllConfigs(
      "for $x in (10, 20) for $y at $i in (1 to $x idiv 10) return $i",
      "1 1 2");
  CheckAllConfigs(
      "for $x in ('a','b'), $y at $i in (1,2) return concat($x, $i)",
      "a1 a2 b1 b2");
  CheckAllConfigs("for $x in (3,1,2) order by $x return $x", "1 2 3");
  CheckAllConfigs("for $x in (3,1,2) order by $x descending return $x",
                  "3 2 1");
}

TEST(EngineBasics, PaperGroupByExample) {
  // Section 5 / Figure 4 of the paper.
  CheckAllConfigs(
      "for $x in (1,1,3) "
      "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
      "return ($x, $a)",
      "1 15 1 15 3");
}

TEST(EngineBasics, Quantifiers) {
  CheckAllConfigs("some $x in (1,2,3) satisfies $x > 2", "true");
  CheckAllConfigs("every $x in (1,2,3) satisfies $x > 0", "true");
  CheckAllConfigs("some $x in (1,2), $y in (2,3) satisfies $x = $y", "true");
}

TEST(EngineBasics, Typeswitch) {
  CheckAllConfigs(
      "typeswitch (42) case $i as xs:integer return \"int\" "
      "default $d return \"other\"",
      "int");
  CheckAllConfigs(
      "for $v in (1, \"s\", 2.5) return "
      "typeswitch ($v) case $i as xs:integer return $i * 100 "
      "case $s as xs:string return $s default $d return 0",
      "100 s 0");
}

TEST(EngineBasics, Constructors) {
  CheckAllConfigs("<r>{for $i in 1 to 3 return <x v=\"{$i}\"/>}</r>",
                  "<r><x v=\"1\"/><x v=\"2\"/><x v=\"3\"/></r>");
  CheckAllConfigs("element foo { attribute a { 1 }, \"txt\" }",
                  "<foo a=\"1\">txt</foo>");
  CheckAllConfigs("let $e := <a><b>1</b><b>2</b></a> return count($e/b)", "2");
}

TEST(EngineBasics, FunctionsAndRecursion) {
  CheckAllConfigs(
      "declare function local:fib($n) { if ($n < 2) then $n else "
      "local:fib($n - 1) + local:fib($n - 2) }; local:fib(15)",
      "610");
  CheckAllConfigs(
      "declare variable $base := 10; "
      "declare function local:scale($x) { $x * $base }; "
      "sum(for $i in 1 to 4 return local:scale($i))",
      "100");
}

TEST(EngineBasics, TypeExpressions) {
  CheckAllConfigs("1 instance of xs:integer", "true");
  CheckAllConfigs("\"42\" cast as xs:integer", "42");
  CheckAllConfigs("\"x\" castable as xs:double", "false");
  CheckAllConfigs("(1,2) treat as xs:integer*", "1 2");
}

// ---- document-based queries -------------------------------------------------

class EngineDocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.RegisterDocument("auction.xml", MustParseXml(R"(
      <site>
        <people>
          <person id="person0"><name>Ann</name><age>31</age></person>
          <person id="person1"><name>Bob</name><age>25</age></person>
          <person id="person2"><name>Cyd</name><age>31</age></person>
          <person id="person3"><name>Dan</name><age>40</age></person>
        </people>
        <closed_auctions>
          <closed_auction><buyer person="person0"/><price>10</price></closed_auction>
          <closed_auction><buyer person="person0"/><price>20</price></closed_auction>
          <closed_auction><buyer person="person2"/><price>30</price></closed_auction>
          <closed_auction><buyer person="person2"/><price>15</price></closed_auction>
          <closed_auction><buyer person="person2"/><price>5</price></closed_auction>
        </closed_auctions>
      </site>)"));
  }
  void Check(const std::string& q, const char* expected = nullptr) {
    CheckAllConfigs("let $auction := doc(\"auction.xml\") return " + q, &ctx_,
                    expected);
  }
  DynamicContext ctx_;
};

TEST_F(EngineDocTest, Paths) {
  Check("count($auction//person)", "4");
  Check("$auction//person[1]/name/text()", "Ann");
  Check("$auction//person[position() = 2]/name/text()", "Bob");
  Check("$auction//person[last()]/name/text()", "Dan");
  Check("string($auction//person[age = 25]/@id)", "person1");
  Check("count($auction//closed_auction[price > 12])", "3");
}

TEST_F(EngineDocTest, NestedFLWORJoin) {
  // The shape of the paper's Q8 variant: nested FLWOR with a join predicate
  // and an aggregate over the nested result.
  Check(
      "for $p in $auction//person "
      "let $a := for $t in $auction//closed_auction "
      "          where $t/buyer/@person = $p/@id "
      "          return $t "
      "return <item person=\"{$p/name/text()}\">{count($a)}</item>",
      "<item person=\"Ann\">2</item><item person=\"Bob\">0</item>"
      "<item person=\"Cyd\">3</item><item person=\"Dan\">0</item>");
}

TEST_F(EngineDocTest, NestedPathJoin) {
  // The paper's Q1 path-expression variant (Section 4): joins through a
  // nested path predicate instead of a nested FLWOR.
  Check(
      "for $p in $auction//person "
      "let $a := $auction//closed_auction[buyer/@person = $p/@id] "
      "return count($a)",
      "2 0 3 0");
}

TEST_F(EngineDocTest, JoinWithAggregates) {
  Check(
      "for $p in $auction//person "
      "let $spent := sum(for $t in $auction//closed_auction "
      "                  where $t/buyer/@person = $p/@id "
      "                  return number($t/price)) "
      "order by $spent descending "
      "return <p n=\"{$p/name/text()}\" s=\"{$spent}\"/>",
      "<p n=\"Cyd\" s=\"50\"/><p n=\"Ann\" s=\"30\"/>"
      "<p n=\"Bob\" s=\"0\"/><p n=\"Dan\" s=\"0\"/>");
}

TEST_F(EngineDocTest, UncorrelatedJoin) {
  Check(
      "for $p in $auction//person, $t in $auction//closed_auction "
      "where $t/buyer/@person = $p/@id "
      "return string($p/@id)",
      "person0 person0 person2 person2 person2");
}

TEST_F(EngineDocTest, ConjunctivePredicates) {
  Check(
      "for $p in $auction//person, $t in $auction//closed_auction "
      "where $t/buyer/@person = $p/@id and $t/price > 12 "
      "return ($p/name/text(), $t/price/text())",
      "Ann20Cyd30Cyd15");
}

TEST_F(EngineDocTest, OrderPreservation) {
  // Join results must preserve the left input order, then the right order —
  // also under hash/sort joins (the paper's order-preserving variants).
  Check(
      "for $t in $auction//closed_auction, $p in $auction//person "
      "where $p/@id = $t/buyer/@person "
      "return $t/price/text()",
      "102030155");
}

TEST_F(EngineDocTest, QuantifiedJoin) {
  Check(
      "for $p in $auction//person "
      "where some $t in $auction//closed_auction "
      "      satisfies $t/buyer/@person = $p/@id "
      "return $p/name/text()",
      "AnnCyd");
}

// ---- engine plumbing ----------------------------------------------------------

TEST(EngineApi, ExplainShowsOptimizedPlan) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "for $x in (1,1,3) "
      "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
      "return ($x, $a)");
  ASSERT_OK(q);
  std::string plan = q.value().ExplainPlan(false);
  EXPECT_NE(plan.find("GroupBy"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LOuterJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("MapIndexStep"), std::string::npos) << plan;
  std::string naive = q.value().ExplainUnoptimizedPlan(false);
  EXPECT_EQ(naive.find("GroupBy"), std::string::npos) << naive;
  EXPECT_NE(naive.find("MapConcat"), std::string::npos) << naive;
}

TEST(EngineApi, OptimizerStatsReported) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(
      "for $x in (1,1,3) "
      "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
      "return ($x, $a)");
  ASSERT_OK(q);
  const OptimizerStats& s = q.value().optimizer_stats();
  EXPECT_EQ(s.insert_group_by, 1);
  EXPECT_EQ(s.map_through_group_by, 1);
  EXPECT_EQ(s.remove_duplicate_null, 1);
  EXPECT_EQ(s.insert_outer_join, 1);
  EXPECT_GE(s.index_to_index_step, 1);
}

TEST(EngineApi, ExecStatsCountJoinAlgorithms) {
  DynamicContext ctx;
  ctx.RegisterDocument("d.xml", MustParseXml(
      "<r><a k=\"1\"/><a k=\"2\"/><b k=\"2\"/><b k=\"1\"/></r>"));
  Engine engine;
  const std::string q =
      "let $r := doc(\"d.xml\")/r "
      "return for $a in $r/a, $b in $r/b where $a/@k = $b/@k "
      "return string($a/@k)";
  for (JoinImpl impl : {JoinImpl::kHash, JoinImpl::kSort, JoinImpl::kNestedLoop}) {
    EngineOptions opts;
    opts.join_impl = impl;
    Result<PreparedQuery> pq = engine.Prepare(q, opts);
    ASSERT_OK(pq);
    Result<std::string> r = pq.value().ExecuteToString(&ctx);
    ASSERT_OK(r);
    EXPECT_EQ(r.value(), "1 2");
    const ExecStats& s = pq.value().last_exec_stats();
    switch (impl) {
      case JoinImpl::kHash: EXPECT_GE(s.hash_joins, 1); break;
      case JoinImpl::kSort: EXPECT_GE(s.sort_joins, 1); break;
      case JoinImpl::kNestedLoop: EXPECT_GE(s.nested_loop_joins, 1); break;
    }
  }
}

// The inner join runs once per $i, but its build side does not depend on
// $i: the equality joins build their index for the first $i and reuse it
// for the other two. Nested loops build no index.
TEST(EngineApi, CorrelatedJoinReusesItsBuild) {
  const std::string q =
      "for $i in (1 to 3) return <r>{for $a in (1 to 50), $b in (1 to 50) "
      "where $a = $b and $a > $i return $a}</r>";
  DynamicContext ctx;
  const std::string expected = testutil::InterpToString(q);
  Engine engine;
  for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialize}) {
    for (JoinImpl impl :
         {JoinImpl::kHash, JoinImpl::kSort, JoinImpl::kNestedLoop}) {
      EngineOptions opts;
      opts.exec_mode = mode;
      opts.join_impl = impl;
      Result<PreparedQuery> pq = engine.Prepare(q, opts);
      ASSERT_OK(pq);
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      ASSERT_OK(r);
      EXPECT_EQ(r.value(), expected);
      const ExecStats s = pq.value().last_exec_stats();
      EXPECT_EQ(s.hash_joins, impl == JoinImpl::kHash ? 3 : 0);
      EXPECT_EQ(s.sort_joins, impl == JoinImpl::kSort ? 3 : 0);
      EXPECT_EQ(s.nested_loop_joins, impl == JoinImpl::kNestedLoop ? 3 : 0);
      EXPECT_EQ(s.join_index_reuses, impl == JoinImpl::kNestedLoop ? 0 : 2);
    }
  }
}

TEST(EngineApi, SortFreePathsSkipDistinctDocOrder) {
  Engine engine;
  DynamicContext ctx;
  std::string xml = "<site><people>";
  for (int i = 0; i < 40; i++) {
    xml += "<person id=\"p" + std::to_string(i) +
           "\"><name>n</name><age>3</age></person>";
  }
  xml += "</people></site>";
  ctx.RegisterDocument("d.xml", MustParseXml(xml));

  // Child/attribute-only path from a statically known singleton (fn:doc):
  // every step is annotated kSkip and no DistinctDocOrder sort runs.
  {
    Result<PreparedQuery> q =
        engine.Prepare("doc(\"d.xml\")/site/people/person/@id");
    ASSERT_OK(q);
    ASSERT_OK(q.value().ExecuteToString(&ctx));
    ExecStats s = q.value().last_exec_stats();
    EXPECT_EQ(s.tree_join.ddo_sorts, 0);
    EXPECT_GT(s.tree_join.ddo_skip_static, 0);
  }
  // Descendant step over an indexed tree: sort-free and index-served.
  {
    Result<PreparedQuery> q = engine.Prepare("count(doc(\"d.xml\")//person)");
    ASSERT_OK(q);
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_OK(r);
    EXPECT_EQ(r.value(), "40");
    ExecStats s = q.value().last_exec_stats();
    EXPECT_EQ(s.tree_join.ddo_sorts, 0);
    EXPECT_GT(s.tree_join.index_lookups, 0);
  }
  // force_sort baseline: identical answer, sorts reinstated.
  {
    EngineOptions opts;
    opts.force_sort = true;
    Result<PreparedQuery> q =
        engine.Prepare("count(doc(\"d.xml\")//person)", opts);
    ASSERT_OK(q);
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    ASSERT_OK(r);
    EXPECT_EQ(r.value(), "40");
    EXPECT_GT(q.value().last_exec_stats().tree_join.ddo_sorts, 0);
  }
}

// Batched execution is an internal amortization, not a semantic change:
// every observable ExecStats counter — guard checks/steps, peak memory,
// source tuples, early stops, join/tree-join counters — must be identical
// whether the pipeline runs tuple-at-a-time (batch_size=1, the oracle) or
// with the default 1024-tuple batches.
void ExpectStatsEqual(const ExecStats& a, const ExecStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.hash_joins, b.hash_joins) << what;
  EXPECT_EQ(a.sort_joins, b.sort_joins) << what;
  EXPECT_EQ(a.range_joins, b.range_joins) << what;
  EXPECT_EQ(a.nested_loop_joins, b.nested_loop_joins) << what;
  EXPECT_EQ(a.group_bys, b.group_bys) << what;
  EXPECT_EQ(a.composite_joins, b.composite_joins) << what;
  EXPECT_EQ(a.join_index_reuses, b.join_index_reuses) << what;
  EXPECT_EQ(a.specialized_joins, b.specialized_joins) << what;
  EXPECT_EQ(a.source_tuples, b.source_tuples) << what;
  EXPECT_EQ(a.streaming_early_stops, b.streaming_early_stops) << what;
  EXPECT_EQ(a.guard_checks, b.guard_checks) << what;
  EXPECT_EQ(a.guard_steps, b.guard_steps) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.nodes_copied, b.nodes_copied) << what;
  EXPECT_EQ(a.nodes_adopted, b.nodes_adopted) << what;
  EXPECT_EQ(a.tree_join.ddo_sorts, b.tree_join.ddo_sorts) << what;
  EXPECT_EQ(a.tree_join.ddo_dedups, b.tree_join.ddo_dedups) << what;
  EXPECT_EQ(a.tree_join.ddo_skip_static, b.tree_join.ddo_skip_static) << what;
  EXPECT_EQ(a.tree_join.ddo_skip_singleton, b.tree_join.ddo_skip_singleton)
      << what;
  EXPECT_EQ(a.tree_join.ddo_skip_verified, b.tree_join.ddo_skip_verified)
      << what;
  EXPECT_EQ(a.tree_join.index_lookups, b.tree_join.index_lookups) << what;
}

TEST(EngineApi, ExecStatsBatchSizeInvariant) {
  DynamicContext ctx;
  std::string xml = "<r>";
  for (int i = 0; i < 500; i++) {
    xml += "<e k=\"" + std::to_string(i % 7) + "\"><v>" + std::to_string(i) +
           "</v></e>";
  }
  xml += "</r>";
  ctx.RegisterDocument("d.xml", MustParseXml(xml));

  const char* kQueries[] = {
      // Full consumption through scan / select / map / aggregation.
      "sum(for $e in doc(\"d.xml\")/r/e where $e/@k = \"3\" "
      "return xs:integer($e/v))",
      // Descendant axis + positional predicate (demand-bounded pipeline).
      "string((doc(\"d.xml\")//v)[3])",
      // Early exit: exists() cuts the source stream mid-way.
      "exists(doc(\"d.xml\")//e[v = \"250\"])",
      // Quantifier early exit.
      "some $e in doc(\"d.xml\")/r/e satisfies $e/@k = \"5\"",
      // Join-heavy FLWOR.
      "count(for $a in doc(\"d.xml\")/r/e, $b in doc(\"d.xml\")/r/e "
      "where $a/@k = $b/@k and $a/v = \"7\" return $b)",
      // subsequence over an unbounded generator.
      "sum(subsequence(for $e in doc(\"d.xml\")/r/e return "
      "xs:integer($e/v), 2, 5))",
      // Nested constructor blocks: adopted level by level, except where a
      // let-bound block is placed twice.
      "<r>{for $a in doc(\"d.xml\")/r/e[v < 20] return <a>{"
      "for $b in doc(\"d.xml\")/r/e where $b/@k = $a/@k and $b/v < 40 "
      "return <b>{$b/v}</b>}</a>}</r>",
      "for $e in doc(\"d.xml\")/r/e[v < 30] let $x := <x>{$e/v}</x> "
      "return (<a>{$x}</a>, <b>{$x}</b>)",
  };

  Engine engine;
  // Warm the lazy per-document structural index first: its one-time build
  // cost is guard-accounted by whichever execution triggers it, which would
  // otherwise skew the first run's peak_memory_bytes.
  {
    Result<std::string> warm =
        engine.Execute("count(doc(\"d.xml\")//v)", &ctx);
    ASSERT_OK(warm);
  }
  // Which route constructor content takes does not depend on the execution
  // mode either: the streaming oracle's copy counters bind the materializing
  // runs too.
  ExecStats streaming_oracle[std::size(kQueries)];
  for (ExecMode mode : {ExecMode::kStreaming, ExecMode::kMaterialize}) {
    for (size_t qi = 0; qi < std::size(kQueries); qi++) {
      const char* query = kQueries[qi];
      ExecStats oracle;
      std::string oracle_out;
      for (int batch : {1, 1024}) {
        EngineOptions opts;
        opts.exec_mode = mode;
        opts.batch_size = batch;
        Result<PreparedQuery> q = engine.Prepare(query, opts);
        ASSERT_OK(q);
        Result<std::string> r = q.value().ExecuteToString(&ctx);
        ASSERT_OK(r);
        const std::string what =
            std::string(mode == ExecMode::kStreaming ? "streaming"
                                                     : "materialize") +
            " batch=" + std::to_string(batch) + "\nquery: " + query;
        if (batch == 1) {
          oracle = q.value().last_exec_stats();
          oracle_out = r.value();
          if (mode == ExecMode::kStreaming) {
            streaming_oracle[qi] = oracle;
          } else {
            EXPECT_EQ(oracle.nodes_copied, streaming_oracle[qi].nodes_copied)
                << what;
            EXPECT_EQ(oracle.nodes_adopted,
                      streaming_oracle[qi].nodes_adopted)
                << what;
          }
        } else {
          EXPECT_EQ(r.value(), oracle_out) << what;
          ExpectStatsEqual(q.value().last_exec_stats(), oracle, what);
        }
      }
    }
  }
}

TEST(EngineApi, OneShotExecute) {
  Engine engine;
  DynamicContext ctx;
  Result<std::string> r = engine.Execute("sum(1 to 4)", &ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "10");
  EXPECT_FALSE(engine.Execute("1 idiv 0", &ctx).ok());
  EXPECT_FALSE(engine.Execute("syntax error (", &ctx).ok());
}

TEST(EngineApi, ParseErrorsSurface) {
  Engine engine;
  EXPECT_FALSE(engine.Prepare("for $x in").ok());
  EXPECT_FALSE(engine.Prepare("1 +").ok());
  EXPECT_FALSE(engine.Prepare("<a>").ok());
}

}  // namespace
}  // namespace xqc
