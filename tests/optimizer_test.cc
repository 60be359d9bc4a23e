// Tests for the Figure 5 rewritings (Section 5): each rule in isolation on
// hand-built plans, and the paper's complete derivations — the Figure 4
// GroupBy example reaching its published P2-shaped plan, and the Section 2
// Q8 variant reaching GroupBy + LOuterJoin + MapIndexStep with the type
// operations kept inside the GroupBy.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/opt/optimizer.h"
#include "src/runtime/eval.h"
#include "src/xml/serializer.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "test_util.h"

namespace xqc {
namespace {

std::string Optimized(OpPtr plan, OptimizerStats* stats = nullptr) {
  return OpToString(*OptimizePlan(std::move(plan), stats));
}

/// Builds MapFromItem{[f:IN]}(Var[v]) — an independent tuple stream.
OpPtr Stream(const char* field, const char* var) {
  return OpMapFromItem(OpTupleConstruct({Symbol(field)}, {OpIn()}),
                       OpVar(Symbol(var)));
}

// ---- standard rules ----------------------------------------------------------

TEST(RewriteRules, RemoveMap) {
  // MapConcat{Op1}([]) => Op1.
  OptimizerStats stats;
  EXPECT_EQ(Optimized(OpMapConcat(Stream("p", "people"), OpEmptyTuples()),
                      &stats),
            "MapFromItem{[p:IN]}(Var[people])");
  EXPECT_EQ(stats.remove_map, 1);
}

TEST(RewriteRules, InsertProduct) {
  // MapConcat{Op1}(Op2) => Product(Op2, Op1) when Op1 is independent.
  OptimizerStats stats;
  EXPECT_EQ(Optimized(OpMapConcat(Stream("t", "auctions"), Stream("p", "people")),
                      &stats),
            "Product(MapFromItem{[p:IN]}(Var[people]),"
            "MapFromItem{[t:IN]}(Var[auctions]))");
  EXPECT_EQ(stats.insert_product, 1);
}

TEST(RewriteRules, InsertProductRequiresIndependence) {
  // A dependent stream (reads IN#p) must stay a MapConcat.
  OpPtr dep = OpMapFromItem(OpTupleConstruct({Symbol("t")}, {OpIn()}),
                            OpInField(Symbol("p")));
  OptimizerStats stats;
  std::string out =
      Optimized(OpMapConcat(std::move(dep), Stream("p", "people")), &stats);
  EXPECT_NE(out.find("MapConcat{"), std::string::npos) << out;
  EXPECT_EQ(stats.insert_product, 0);
}

TEST(RewriteRules, InsertJoin) {
  // Select{P}(Product(A,B)) => Join{P}(A,B).
  OpPtr pred = OpCall(Symbol("op:general-eq"),
                      {OpInField(Symbol("p")), OpInField(Symbol("t"))});
  OptimizerStats stats;
  EXPECT_EQ(Optimized(OpSelect(pred, OpProduct(Stream("p", "A"), Stream("t", "B"))),
                      &stats),
            "Join{op:general-eq(IN#p,IN#t)}(MapFromItem{[p:IN]}(Var[A]),"
            "MapFromItem{[t:IN]}(Var[B]))");
  EXPECT_EQ(stats.insert_join, 1);
}

TEST(RewriteRules, SplitAndMergeConjunctions) {
  // Select{op:and(P,Q)}(Product) ends as one Join with both conjuncts.
  OpPtr p = OpCall(Symbol("op:general-eq"),
                   {OpInField(Symbol("a")), OpInField(Symbol("b"))});
  OpPtr q = OpCall(Symbol("op:general-gt"),
                   {OpInField(Symbol("a")), OpScalar(AtomicValue::Integer(1))});
  OpPtr both = OpCall(Symbol("op:and"), {p, q});
  OptimizerStats stats;
  std::string out = Optimized(
      OpSelect(both, OpProduct(Stream("a", "A"), Stream("b", "B"))), &stats);
  EXPECT_EQ(out.rfind("Join{op:and(", 0), 0) << out;
  EXPECT_GE(stats.split_select, 1);
  EXPECT_EQ(out.find("Select"), std::string::npos) << out;
}

// ---- new rules (the paper's contribution) --------------------------------------

/// The nested correlated stream of the Figure 4 example:
/// Select{IN#x <= IN#y}(MapConcat{MapFromItem{[y:IN]}((1,2))}(IN)).
OpPtr Fig4NestedStream() {
  OpPtr one_two = MakeOp(OpKind::kSequence);
  one_two->inputs = {OpScalar(AtomicValue::Integer(1)),
                     OpScalar(AtomicValue::Integer(2))};
  OpPtr inner = OpMapConcat(
      OpMapFromItem(OpTupleConstruct({Symbol("y")}, {OpIn()}), one_two),
      OpIn());
  OpPtr le = OpCall(Symbol("op:general-le"),
                    {OpInField(Symbol("x")), OpInField(Symbol("y"))});
  return OpSelect(std::move(le), std::move(inner));
}

/// [a : avg(MapToItem{IN#y * 10}(nested))] as a MapConcat dependent.
OpPtr Fig4LetPlan() {
  OpPtr times = OpCall(Symbol("op:times"),
                       {OpInField(Symbol("y")),
                        OpScalar(AtomicValue::Integer(10))});
  OpPtr nested = OpMapToItem(std::move(times), Fig4NestedStream());
  OpPtr avg = OpCall(Symbol("fn:avg"), {std::move(nested)});
  OpPtr one_one_three = MakeOp(OpKind::kSequence);
  OpPtr inner_seq = MakeOp(OpKind::kSequence);
  inner_seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                       OpScalar(AtomicValue::Integer(1))};
  one_one_three->inputs = {inner_seq, OpScalar(AtomicValue::Integer(3))};
  OpPtr outer = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}),
                              one_one_three);
  return OpMapConcat(OpTupleConstruct({Symbol("a")}, {std::move(avg)}),
                     std::move(outer));
}

TEST(RewriteRules, InsertGroupByOnUnaryTupleConstructor) {
  // (insert group-by): the unary tuple constructor over a correlated
  // MapToItem becomes a trivial GroupBy over OMap.
  OptimizerStats stats;
  std::string out = Optimized(Fig4LetPlan(), &stats);
  EXPECT_EQ(stats.insert_group_by, 1);
  EXPECT_NE(out.find("GroupBy[a,"), std::string::npos) << out;
  // The avg moved into the post-grouping operator applied to the partition.
  EXPECT_NE(out.find("{fn:avg(IN),"), std::string::npos) << out;
  // The per-item operator became the pre-grouping operator.
  EXPECT_NE(out.find("op:times(IN#y,10)"), std::string::npos) << out;
}

TEST(RewriteRules, FullFigure4Derivation) {
  // The complete pipeline reaches the paper's final plan:
  //   GroupBy[a,[index],[null]]{avg(IN)}{IN#y*10}
  //     (LOuterJoin[null]{IN#x<=IN#y}
  //       (MapIndexStep[index](MapFromItem{[x:IN]}((1,1),3)),
  //        MapFromItem{[y:IN]}((1,2))))
  OptimizerStats stats;
  std::string out = Optimized(Fig4LetPlan(), &stats);
  EXPECT_EQ(stats.map_through_group_by, 1);
  EXPECT_EQ(stats.remove_duplicate_null, 1);
  EXPECT_EQ(stats.insert_outer_join, 1);
  EXPECT_EQ(stats.index_to_index_step, 1);
  EXPECT_EQ(out,
            "GroupBy[a,[index1],[null2]]{fn:avg(IN),op:times(IN#y,10)}("
            "LOuterJoin[null2]{op:general-le(IN#x,IN#y)}("
            "MapIndexStep[index1](MapFromItem{[x:IN]}(Sequence(Sequence(1,1)"
            ",3))),MapFromItem{[y:IN]}(Sequence(1,2))))");
}

TEST(RewriteRules, GroupByKeepsUncorrelatedStreamsNested) {
  // An independent nested stream needs no unnesting.
  OpPtr indep_nested = OpMapToItem(
      OpInField(Symbol("y")),
      OpSelect(OpCall(Symbol("op:general-gt"),
                      {OpInField(Symbol("y")),
                       OpScalar(AtomicValue::Integer(0))}),
               Stream("y", "ys")));
  OpPtr plan = OpMapConcat(
      OpTupleConstruct({Symbol("a")},
                       {OpCall(Symbol("fn:avg"), {std::move(indep_nested)})}),
      Stream("x", "xs"));
  OptimizerStats stats;
  Optimized(std::move(plan), &stats);
  EXPECT_EQ(stats.insert_group_by, 0);
}

TEST(RewriteRules, TypeOperatorChainMovesIntoGroupBy) {
  // The paper's P1 shape: [a: TypeAssert[T*](MapToItem{Validate(IN#t)}(..))]
  // — the chain ends up applied to the partition inside the GroupBy.
  SequenceType auction_star =
      SequenceType::Star(ItemTest::Element(Symbol(), Symbol("Auction")));
  OpPtr validate = MakeOp(OpKind::kValidate);
  validate->inputs = {OpInField(Symbol("t"))};
  OpPtr nested_stream = OpSelect(
      OpCall(Symbol("op:general-eq"),
             {OpInField(Symbol("t")), OpInField(Symbol("p"))}),
      OpMapConcat(Stream("t", "auctions"), OpIn()));
  OpPtr let_value = OpTypeAssert(
      auction_star, OpMapToItem(std::move(validate), std::move(nested_stream)));
  OpPtr plan =
      OpMapConcat(OpTupleConstruct({Symbol("a")}, {std::move(let_value)}),
                  Stream("p", "people"));
  OptimizerStats stats;
  std::string out = Optimized(std::move(plan), &stats);
  EXPECT_EQ(stats.insert_group_by, 1);
  EXPECT_EQ(stats.insert_outer_join, 1);
  // Post-grouping operator: TypeAssert applied to the whole partition.
  EXPECT_NE(out.find("{TypeAssert[element(*,Auction)*](IN),"),
            std::string::npos)
      << out;
  // Pre-grouping operator: Validate applied per item.
  EXPECT_NE(out.find("Validate(IN#t)"), std::string::npos) << out;
  EXPECT_NE(out.find("LOuterJoin"), std::string::npos) << out;
}

TEST(RewriteRules, MapIndexStaysWhenFieldIsAccessed) {
  // MapIndex[i] must NOT become MapIndexStep when IN#i is read.
  OpPtr plan = OpMapToItem(OpInField(Symbol("i")),
                           OpMapIndex(Symbol("i"), Stream("x", "xs")));
  OptimizerStats stats;
  std::string out = Optimized(std::move(plan), &stats);
  EXPECT_NE(out.find("MapIndex[i]"), std::string::npos) << out;
  EXPECT_EQ(out.find("MapIndexStep"), std::string::npos) << out;
  EXPECT_EQ(stats.index_to_index_step, 0);
}

// ---- flattening nested blocks: lifted products and outer maps -----------------

OpPtr In(const char* field) { return OpInField(Symbol(field)); }

OpPtr Eq(OpPtr a, OpPtr b) {
  return OpCall(Symbol("op:general-eq"), {std::move(a), std::move(b)});
}

OpPtr Seq(std::vector<OpPtr> items) {
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = std::move(items);
  return seq;
}

/// Evaluates an item-valued plan over $xs = (1,2,3), $ys = (2,3,3,4) and
/// $zs = (3,4,4,5); "ERROR:<code>" on failure.
std::string Eval(const OpPtr& plan) {
  DynamicContext ctx;
  auto ints = [](std::vector<int> v) {
    Sequence out;
    for (int i : v) out.push_back(AtomicValue::Integer(i));
    return out;
  };
  ctx.BindVariable(Symbol("xs"), ints({1, 2, 3}));
  ctx.BindVariable(Symbol("ys"), ints({2, 3, 3, 4}));
  ctx.BindVariable(Symbol("zs"), ints({3, 4, 4, 5}));
  CompiledQuery q;
  q.plan = plan;
  PlanEvaluator eval(&q, &ctx, testutil::kMaterializeOptions);
  Result<Sequence> r = eval.Run();
  return r.ok() ? SerializeSequence(r.value())
                : "ERROR:" + r.status().code();
}

/// Optimizes a copy of `plan` and checks it still evaluates to the same
/// bytes; returns the optimized plan's text.
std::string OptimizedAgrees(const OpPtr& plan, OptimizerStats* stats) {
  std::string before = Eval(plan);
  OpPtr optimized = OptimizePlan(CloneOp(*plan), stats);
  EXPECT_EQ(Eval(optimized), before) << OpToString(*optimized);
  return OpToString(*optimized);
}

/// The Q9 shape: per $x, an uncorrelated inner `for $y` (the Product(IN,..)
/// that (insert product) leaves) numbered and outer-joined with $zs, then
/// grouped — nothing inside reads $x.
OpPtr ProductUnderGroupBy(OpPtr join_pred) {
  OpPtr inner = OpGroupBy(
      Symbol("a"), {Symbol("i")}, {Symbol("m")},
      OpCall(Symbol("fn:count"), {OpIn()}), In("z"),
      OpLOuterJoin(Symbol("m"), std::move(join_pred),
                   OpMapIndex(Symbol("i"),
                              OpProduct(OpIn(), Stream("y", "ys"))),
                   Stream("z", "zs")));
  return OpMapToItem(Seq({In("x"), In("y"), In("a")}),
                     OpMapConcat(std::move(inner), Stream("x", "xs")));
}

TEST(RewriteRules, LiftProductAboveIndexJoinAndGroupBy) {
  OptimizerStats stats;
  std::string out =
      OptimizedAgrees(ProductUnderGroupBy(Eq(In("y"), In("z"))), &stats);
  EXPECT_EQ(stats.lift_product, 3) << out;
  EXPECT_NE(out.find("MapConcat{Product(IN,GroupBy[a,[i],[m]]"),
            std::string::npos)
      << out;
}

TEST(RewriteRules, LiftProductStopsAtInFieldReads) {
  // The outer join reads $x, a field of IN: the product must stay below it.
  OptimizerStats stats;
  std::string out =
      OptimizedAgrees(ProductUnderGroupBy(Eq(In("x"), In("z"))), &stats);
  EXPECT_EQ(stats.lift_product, 1) << out;  // only past the MapIndex
  EXPECT_NE(out.find("LOuterJoin[m]{op:general-eq(IN#x,IN#z)}(Product(IN,"),
            std::string::npos)
      << out;
}

/// The N3 shape after (map through group-by): per numbered $x, a
/// correlated `for $y where $y = $x` (Join(IN, ..)), numbered and
/// outer-joined with $zs through `pred`, grouped into `a`; the enclosing
/// GroupBy lists `outer_nulls` and groups `a` per $x.
OpPtr OuterMapUnderGroupBy(OpPtr pred, OpPtr inner_pre,
                           std::vector<Symbol> outer_nulls) {
  OpPtr inner = OpGroupBy(
      Symbol("a"), {Symbol("k")}, {Symbol("m")}, OpIn(), std::move(inner_pre),
      OpLOuterJoin(Symbol("m"), std::move(pred),
                   OpMapIndex(Symbol("k"), OpJoin(Eq(In("y"), In("x")),
                                                  OpIn(), Stream("y", "ys"))),
                   Stream("z", "zs")));
  OpPtr outer = OpGroupBy(
      Symbol("b"), {Symbol("s")}, std::move(outer_nulls),
      OpCall(Symbol("fn:count"), {OpIn()}), In("a"),
      OpOMapConcat(Symbol("n"), std::move(inner),
                   OpMapIndex(Symbol("s"), Stream("x", "xs"))));
  return OpMapToItem(Seq({In("x"), In("b")}), std::move(outer));
}

TEST(RewriteRules, OuterMapThroughGroupByAloneEvaluates) {
  // fn:string() is not a navigation path, so the outer map cannot be pushed
  // through the LOuterJoin: only (map through group-by) fires, and its plan
  // — whose n-null rows lack the inner index k — must evaluate as is.
  OptimizerStats stats;
  std::string out = OptimizedAgrees(
      OuterMapUnderGroupBy(
          Eq(OpCall(Symbol("fn:string"), {In("y")}),
             OpCall(Symbol("fn:string"), {In("z")})),
          In("z"), {Symbol("n")}),
      &stats);
  EXPECT_EQ(stats.outer_map_through_group_by, 1) << out;
  EXPECT_EQ(stats.push_outer_map, 0) << out;
  EXPECT_NE(out.find("GroupBy[a,[s,k],[m,n]]"), std::string::npos) << out;
}

TEST(RewriteRules, PushOuterMapUntilOuterJoin) {
  // The full flattening: the outer map moves through the inner GroupBy,
  // the LOuterJoin and the MapIndex, and (insert outer-join) replaces it.
  OptimizerStats stats;
  std::string out = OptimizedAgrees(
      OuterMapUnderGroupBy(Eq(In("y"), In("z")), In("z"), {Symbol("n")}),
      &stats);
  EXPECT_EQ(stats.outer_map_through_group_by, 1) << out;
  EXPECT_EQ(stats.push_outer_map, 2) << out;
  EXPECT_EQ(stats.insert_outer_join, 1) << out;
  EXPECT_EQ(out.find("OMapConcat"), std::string::npos) << out;
  EXPECT_NE(out.find("LOuterJoin[n]{op:general-eq(IN#y,IN#x)}(MapIndex"),
            std::string::npos)
      << out;
}

TEST(RewriteRules, PushOuterMapKeepsReadIndexes) {
  // `for $y at $k`: the inner index is read, so renumbering it across outer
  // tuples would change results — the MapIndex stays inside the outer map.
  OptimizerStats stats;
  std::string out = OptimizedAgrees(
      OuterMapUnderGroupBy(Eq(In("y"), In("z")), Seq({In("z"), In("k")}),
                           {Symbol("n")}),
      &stats);
  EXPECT_EQ(stats.push_outer_map, 1) << out;  // the LOuterJoin only
  EXPECT_NE(out.find("OMapConcat[n]{MapIndex[k]("), std::string::npos) << out;
}

TEST(RewriteRules, OuterMapStaysWithoutNullListingGroupBy) {
  // The enclosing GroupBy does not treat n as null: n-null rows feed its
  // pre-grouping operator, so nothing may change what they carry.
  OptimizerStats stats;
  std::string out = OptimizedAgrees(
      OuterMapUnderGroupBy(Eq(In("y"), In("z")), In("z"), {}), &stats);
  EXPECT_EQ(stats.outer_map_through_group_by, 0) << out;
  EXPECT_EQ(stats.push_outer_map, 0) << out;
  EXPECT_NE(out.find("OMapConcat[n]{GroupBy[a,[k],[m]]"), std::string::npos)
      << out;
}

// ---- end-to-end derivations through the engine ---------------------------------

std::string PlanFor(const std::string& query) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(query);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return "";
  return q.value().ExplainPlan(false);
}

TEST(Derivations, PaperGroupByQueryFromSource) {
  // Compiling + optimizing the actual Section 5 query text produces the
  // same operator skeleton as the hand-built derivation above.
  std::string plan = PlanFor(
      "for $x in (1,1,3) "
      "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
      "return ($x, $a)");
  EXPECT_EQ(plan.rfind("MapToItem{Sequence(IN#x,IN#a)}(GroupBy[a,", 0), 0)
      << plan;
  EXPECT_NE(plan.find("LOuterJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("MapIndexStep"), std::string::npos) << plan;
  EXPECT_NE(plan.find("fn:avg(IN)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("op:times(IN#y,10)"), std::string::npos) << plan;
}

TEST(Derivations, NestedPathVariantAlsoUnnests) {
  // Section 4's claim: the path-predicate variant of Q1 de-correlates too.
  std::string plan = PlanFor(
      "declare variable $auction external; "
      "for $p in $auction//person "
      "let $a := $auction//closed_auction[.//@person = $p/@id] "
      "return count($a)");
  EXPECT_NE(plan.find("GroupBy"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LOuterJoin"), std::string::npos) << plan;
}

TEST(Derivations, UncorrelatedQueriesGetNoGroupBy) {
  std::string plan = PlanFor("for $x in (1,2,3) return $x + 1");
  EXPECT_EQ(plan.find("GroupBy"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Join"), std::string::npos) << plan;
}

TEST(Derivations, OptimizationPreservesFigure4Result) {
  Engine engine;
  DynamicContext ctx;
  Result<PreparedQuery> q = engine.Prepare(
      "for $x in (1,1,3) "
      "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
      "return ($x, $a)");
  ASSERT_OK(q);
  Result<std::string> r = q.value().ExecuteToString(&ctx);
  ASSERT_OK(r);
  EXPECT_EQ(r.value(), "1 15 1 15 3");  // Figure 4's output column
}

}  // namespace
}  // namespace xqc
