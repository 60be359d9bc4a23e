// Tests for the algebra representation (Table 1): construction, printing in
// the paper's notation, structural equality, IN-freeness analysis, and
// direct evaluation of every operator through the plan evaluator.
#include <gtest/gtest.h>

#include "src/algebra/op.h"
#include "src/runtime/eval.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

/// Evaluates an item plan with no context.
Result<Sequence> EvalPlan(const OpPtr& plan, DynamicContext* ctx) {
  CompiledQuery q;
  q.plan = plan;
  PlanEvaluator eval(&q, ctx, testutil::kMaterializeOptions);
  return eval.Run();
}

std::string EvalToString(const OpPtr& plan) {
  DynamicContext ctx;
  Result<Sequence> r = EvalPlan(plan, &ctx);
  if (!r.ok()) return "ERROR:" + r.status().code();
  return SerializeSequence(r.value());
}

// ---- printing ---------------------------------------------------------------

TEST(AlgebraPrint, PaperNotation) {
  // MapConcat{MapFromItem{[p:IN]}(Var[auction])}(IN) — the paper's (FOR)
  // rule output shape.
  OpPtr plan = OpMapConcat(
      OpMapFromItem(OpTupleConstruct({Symbol("p")}, {OpIn()}),
                    OpVar(Symbol("auction"))),
      OpIn());
  EXPECT_EQ(OpToString(*plan),
            "MapConcat{MapFromItem{[p:IN]}(Var[auction])}(IN)");
}

TEST(AlgebraPrint, FieldAccessPrintsInline) {
  EXPECT_EQ(OpToString(*OpInField(Symbol("p"))), "IN#p");
  EXPECT_EQ(OpToString(*OpSelect(OpInField(Symbol("x")), OpIn())),
            "Select{IN#x}(IN)");
}

TEST(AlgebraPrint, GroupByShowsAllThreeFieldSets) {
  OpPtr gb = OpGroupBy(Symbol("a"), {Symbol("index")}, {Symbol("null")},
                       OpIn(), OpInField(Symbol("y")), OpIn());
  EXPECT_EQ(OpToString(*gb), "GroupBy[a,[index],[null]]{IN,IN#y}(IN)");
}

TEST(AlgebraPrint, TreeJoinShowsAxisAndTest) {
  OpPtr tj = OpTreeJoin(Axis::kDescendant, ItemTest::Element(Symbol("person")),
                        OpInField(Symbol("d")));
  EXPECT_EQ(OpToString(*tj), "TreeJoin[descendant::element(person)](IN#d)");
}

TEST(AlgebraPrint, TypeAssertShowsSequenceType) {
  SequenceType t = SequenceType::Star(
      ItemTest::Element(Symbol(), Symbol("Auction")));
  EXPECT_EQ(OpToString(*OpTypeAssert(t, OpIn())),
            "TypeAssert[element(*,Auction)*](IN)");
}

// ---- structural helpers ------------------------------------------------------

TEST(AlgebraStructure, CloneAndEquals) {
  OpPtr plan = OpMapConcat(
      OpMapFromItem(OpTupleConstruct({Symbol("p")}, {OpIn()}),
                    OpVar(Symbol("v"))),
      OpEmptyTuples());
  OpPtr copy = CloneOp(*plan);
  EXPECT_TRUE(OpEquals(*plan, *copy));
  copy->deps[0]->deps[0]->fields[0] = Symbol("q");
  EXPECT_FALSE(OpEquals(*plan, *copy));
}

TEST(AlgebraStructure, FreeInDetection) {
  // IN itself is free.
  EXPECT_TRUE(FreeIn(*OpIn()));
  // A field access over IN is free.
  EXPECT_TRUE(FreeIn(*OpInField(Symbol("x"))));
  // Var / Scalar are not.
  EXPECT_FALSE(FreeIn(*OpVar(Symbol("v"))));
  EXPECT_FALSE(FreeIn(*OpScalar(AtomicValue::Integer(1))));
  // The dep of a MapConcat is bound; its input chain is not.
  OpPtr bound = OpMapConcat(OpTupleConstruct({Symbol("x")}, {OpIn()}),
                            OpVar(Symbol("v")));
  // Input is Var (no IN), dep's IN is bound by the MapConcat => not free...
  // but MapConcat is a tuple op whose INPUT here has no IN.
  EXPECT_FALSE(FreeIn(*bound));
  OpPtr correlated = OpMapConcat(OpTupleConstruct({Symbol("x")}, {OpIn()}),
                                 OpIn());
  EXPECT_TRUE(FreeIn(*correlated));
  // Cond branches see the enclosing IN (pass-through).
  OpPtr cond = OpCond(OpInField(Symbol("x")), OpEmpty(),
                      OpScalar(AtomicValue::Boolean(true)));
  EXPECT_TRUE(FreeIn(*cond));
}

TEST(AlgebraStructure, OuterFieldUses) {
  // Fields introduced inside the subtree do not count as outer uses.
  OpPtr plan = OpMapToItem(
      OpInField(Symbol("dot")),
      OpMapConcat(OpMapFromItem(OpTupleConstruct({Symbol("dot")}, {OpIn()}),
                                OpInField(Symbol("t"))),
                  OpIn()));
  std::vector<Symbol> used;
  CollectOuterFieldUses(*plan, &used);
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], Symbol("t"));
}

// ---- evaluation of each operator family ---------------------------------------

TEST(AlgebraEval, ConstructorsAndSequence) {
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(2))};
  EXPECT_EQ(EvalToString(seq), "1 2");
  EXPECT_EQ(EvalToString(OpEmpty()), "");

  OpPtr elem = MakeOp(OpKind::kElement);
  elem->name = Symbol("a");
  elem->inputs = {OpScalar(AtomicValue::String("hi"))};
  EXPECT_EQ(EvalToString(elem), "<a>hi</a>");

  OpPtr attr = MakeOp(OpKind::kAttribute);
  attr->name = Symbol("k");
  attr->inputs = {OpScalar(AtomicValue::Integer(7))};
  OpPtr elem2 = MakeOp(OpKind::kElement);
  elem2->name = Symbol("b");
  OpPtr seq2 = MakeOp(OpKind::kSequence);
  seq2->inputs = {attr, OpScalar(AtomicValue::String("t"))};
  elem2->inputs = {seq2};
  EXPECT_EQ(EvalToString(elem2), "<b k=\"7\">t</b>");

  OpPtr text = MakeOp(OpKind::kText);
  text->inputs = {OpScalar(AtomicValue::String("plain"))};
  EXPECT_EQ(EvalToString(text), "plain");

  OpPtr comment = MakeOp(OpKind::kComment);
  comment->inputs = {OpScalar(AtomicValue::String("c"))};
  EXPECT_EQ(EvalToString(comment), "<!--c-->");

  OpPtr pi = MakeOp(OpKind::kPI);
  pi->name = Symbol("tgt");
  pi->inputs = {OpScalar(AtomicValue::String("data"))};
  EXPECT_EQ(EvalToString(pi), "<?tgt data?>");
}

TEST(AlgebraEval, TreeJoinAndTypeOps) {
  DynamicContext ctx;
  NodePtr doc = MustParseXml("<r><a>1</a><a>2</a><b/></r>");
  ctx.BindVariable(Symbol("d"), {Item(doc)});

  OpPtr tj = OpTreeJoin(Axis::kDescendant, ItemTest::Element(Symbol("a")),
                        OpVar(Symbol("d")));
  CompiledQuery q;
  q.plan = OpCall(Symbol("fn:count"), {tj});
  PlanEvaluator eval(&q, &ctx, testutil::kMaterializeOptions);
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_EQ(r.value()[0].atomic().AsInt(), 2);

  OpPtr matches = MakeOp(OpKind::kTypeMatches);
  matches->stype = SequenceType::One(ItemTest::Atomic(AtomicType::kInteger));
  matches->inputs = {OpScalar(AtomicValue::Integer(3))};
  EXPECT_EQ(EvalToString(matches), "true");

  OpPtr cast = MakeOp(OpKind::kCast);
  cast->stype = SequenceType::One(ItemTest::Atomic(AtomicType::kInteger));
  cast->inputs = {OpScalar(AtomicValue::String("41"))};
  EXPECT_EQ(EvalToString(cast), "41");

  OpPtr castable = MakeOp(OpKind::kCastable);
  castable->stype = SequenceType::One(ItemTest::Atomic(AtomicType::kInteger));
  castable->inputs = {OpScalar(AtomicValue::String("x"))};
  EXPECT_EQ(EvalToString(castable), "false");

  OpPtr assert_ok = OpTypeAssert(
      SequenceType::Star(ItemTest::Atomic(AtomicType::kInteger)),
      OpScalar(AtomicValue::Integer(5)));
  EXPECT_EQ(EvalToString(assert_ok), "5");
  OpPtr assert_bad = OpTypeAssert(
      SequenceType::One(ItemTest::Atomic(AtomicType::kString)),
      OpScalar(AtomicValue::Integer(5)));
  EXPECT_EQ(EvalToString(assert_bad), "ERROR:XPTY0004");
}

TEST(AlgebraEval, CondTakesEffectiveBooleanValue) {
  OpPtr cond = OpCond(OpScalar(AtomicValue::String("then")),
                      OpScalar(AtomicValue::String("else")),
                      OpScalar(AtomicValue::Integer(1)));
  EXPECT_EQ(EvalToString(cond), "then");
  OpPtr cond2 = OpCond(OpScalar(AtomicValue::String("then")),
                       OpScalar(AtomicValue::String("else")), OpEmpty());
  EXPECT_EQ(EvalToString(cond2), "else");
}

TEST(AlgebraEval, TupleOperatorPipeline) {
  // MapToItem{IN#x}(Select{op:general-gt(IN#x, 1)}(MapFromItem{[x:IN]}(1,2,3)))
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(2))};
  OpPtr seq2 = MakeOp(OpKind::kSequence);
  seq2->inputs = {seq, OpScalar(AtomicValue::Integer(3))};
  OpPtr stream =
      OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), seq2);
  OpPtr filtered = OpSelect(
      OpCall(Symbol("op:general-gt"),
             {OpInField(Symbol("x")), OpScalar(AtomicValue::Integer(1))}),
      stream);
  OpPtr out = OpMapToItem(OpInField(Symbol("x")), filtered);
  EXPECT_EQ(EvalToString(out), "2 3");
}

TEST(AlgebraEval, ProductPreservesOrder) {
  auto mk_stream = [](const char* field, int lo, int hi) {
    OpPtr seq = OpScalar(AtomicValue::Integer(lo));
    for (int i = lo + 1; i <= hi; i++) {
      OpPtr s = MakeOp(OpKind::kSequence);
      s->inputs = {seq, OpScalar(AtomicValue::Integer(i))};
      seq = s;
    }
    return OpMapFromItem(OpTupleConstruct({Symbol(field)}, {OpIn()}), seq);
  };
  OpPtr prod = OpProduct(mk_stream("x", 1, 2), mk_stream("y", 10, 11));
  OpPtr out = OpMapToItem(
      OpCall(Symbol("op:plus"),
             {OpInField(Symbol("x")), OpInField(Symbol("y"))}),
      prod);
  EXPECT_EQ(EvalToString(out), "11 12 12 13");  // left-major order
}

TEST(AlgebraEval, OMapIntroducesNullFlagOnEmpty) {
  OpPtr empty_stream =
      OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), OpEmpty());
  OpPtr omap = OpOMap(Symbol("null"), empty_stream);
  OpPtr out = OpMapToItem(OpInField(Symbol("null")), omap);
  EXPECT_EQ(EvalToString(out), "true");

  OpPtr one_stream = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}),
                                   OpScalar(AtomicValue::Integer(9)));
  OpPtr omap2 = OpOMap(Symbol("null"), one_stream);
  OpPtr out2 = OpMapToItem(OpInField(Symbol("null")), omap2);
  EXPECT_EQ(EvalToString(out2), "false");
}

TEST(AlgebraEval, MapIndexNumbersFromOne) {
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::String("a")),
                 OpScalar(AtomicValue::String("b"))};
  OpPtr stream = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), seq);
  OpPtr indexed = OpMapIndex(Symbol("i"), stream);
  OpPtr out = OpMapToItem(OpInField(Symbol("i")), indexed);
  EXPECT_EQ(EvalToString(out), "1 2");
  // MapIndexStep has identical single-stream behaviour.
  OpPtr stepped = OpMapIndexStep(Symbol("j"), CloneOp(*stream));
  OpPtr out2 = OpMapToItem(OpInField(Symbol("j")), stepped);
  EXPECT_EQ(EvalToString(out2), "1 2");
}

TEST(AlgebraEval, MapBuildsOneTuplePerInput) {
  // Map{t1->t2}: the general functional map of Table 1.
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(3)),
                 OpScalar(AtomicValue::Integer(4))};
  OpPtr stream = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), seq);
  OpPtr map = MakeOp(OpKind::kMap);
  map->deps = {OpTupleConstruct(
      {Symbol("y")},
      {OpCall(Symbol("op:times"),
              {OpInField(Symbol("x")), OpScalar(AtomicValue::Integer(2))})})};
  map->inputs = {stream};
  OpPtr out = OpMapToItem(OpInField(Symbol("y")), map);
  EXPECT_EQ(EvalToString(out), "6 8");
}

TEST(AlgebraEval, TupleConcatCombinesFields) {
  // ++(t1, t2) evaluated in table context yields the combined tuple.
  OpPtr concat = MakeOp(OpKind::kTupleConcat);
  concat->inputs = {
      OpTupleConstruct({Symbol("a")}, {OpScalar(AtomicValue::Integer(1))}),
      OpTupleConstruct({Symbol("b")}, {OpScalar(AtomicValue::Integer(2))})};
  OpPtr out = OpMapToItem(
      OpCall(Symbol("op:plus"),
             {OpInField(Symbol("a")), OpInField(Symbol("b"))}),
      concat);
  EXPECT_EQ(EvalToString(out), "3");
}

TEST(AlgebraEval, OMapConcatFlagsEmptyDependents) {
  // OMapConcat[q]{dep}(input): null-flagged row when dep yields no tuples.
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(2))};
  OpPtr input = OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), seq);
  // dep: a tuple stream that is empty unless x = 1 (x flows in through the
  // dependent MapConcat over IN, as in compiled nested FLWORs).
  OpPtr dep = OpSelect(
      OpCall(Symbol("op:general-eq"),
             {OpInField(Symbol("x")), OpScalar(AtomicValue::Integer(1))}),
      OpMapConcat(OpMapFromItem(OpTupleConstruct({Symbol("y")}, {OpIn()}),
                                OpScalar(AtomicValue::Integer(9))),
                  OpIn()));
  OpPtr omc = OpOMapConcat(Symbol("null"), std::move(dep), std::move(input));
  OpPtr out = OpMapToItem(OpInField(Symbol("null")), omc);
  EXPECT_EQ(EvalToString(out), "false true");
}

TEST(AlgebraEval, MapSomeAndMapEvery) {
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {OpScalar(AtomicValue::Integer(1)),
                 OpScalar(AtomicValue::Integer(5))};
  auto mk = [&](OpKind k) {
    OpPtr stream =
        OpMapFromItem(OpTupleConstruct({Symbol("x")}, {OpIn()}), CloneOp(*seq));
    OpPtr op = MakeOp(k);
    op->deps = {OpCall(Symbol("op:general-gt"),
                       {OpInField(Symbol("x")),
                        OpScalar(AtomicValue::Integer(3))})};
    op->inputs = {stream};
    return op;
  };
  EXPECT_EQ(EvalToString(mk(OpKind::kMapSome)), "true");
  EXPECT_EQ(EvalToString(mk(OpKind::kMapEvery)), "false");
}

TEST(AlgebraEval, ParseResolvesRegisteredDocuments) {
  DynamicContext ctx;
  ctx.RegisterDocument("u.xml", MustParseXml("<u/>"));
  OpPtr parse = MakeOp(OpKind::kParse);
  parse->inputs = {OpScalar(AtomicValue::String("u.xml"))};
  CompiledQuery q;
  q.plan = parse;
  PlanEvaluator eval(&q, &ctx, testutil::kMaterializeOptions);
  Result<Sequence> r = eval.Run();
  ASSERT_OK(r);
  EXPECT_EQ(SerializeSequence(r.value()), "<u/>");
}

TEST(AlgebraEval, VarUnboundReportsXPDY0002) {
  EXPECT_EQ(EvalToString(OpVar(Symbol("nope"))), "ERROR:XPDY0002");
}

}  // namespace
}  // namespace xqc
