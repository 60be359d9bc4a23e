// Tests for the Section 6 / Figure 6 join algorithms: the order-preserving
// XQuery hash join and its ordered-index variant, exercised directly and
// differentially against the nested-loop join with full predicate
// semantics (existential quantification, atomization, untyped casting,
// numeric type promotion).
#include <gtest/gtest.h>

#include <cmath>

#include "src/runtime/joins.h"
#include "src/types/compare.h"
#include "test_util.h"

namespace xqc {
namespace {

Tuple MakeTuple(const char* field, AtomicValue v) {
  Tuple t;
  t.Set(Symbol(field), {std::move(v)});
  return t;
}

Tuple MakeTupleSeq(const char* field, Sequence s) {
  Tuple t;
  t.Set(Symbol(field), std::move(s));
  return t;
}

KeyFn FieldKey(const char* field) {
  Symbol f(field);
  return [f](const Tuple& t) -> Result<Sequence> {
    const Sequence* v = t.Get(f);
    if (v == nullptr) return Sequence{};
    return Atomize(*v);
  };
}

/// The reference: nested loops with op:general-eq on the two key fields.
Result<Table> ReferenceJoin(const Table& left, const Table& right,
                            const char* lf, const char* rf, bool outer) {
  Symbol l(lf), r(rf);
  PredFn pred = [l, r](const Tuple& t) -> Result<bool> {
    const Sequence* a = t.Get(l);
    const Sequence* b = t.Get(r);
    if (a == nullptr || b == nullptr) return false;
    return GeneralCompare(CompOp::kEq, *a, *b);
  };
  return NestedLoopJoin(left, right, pred, outer, Symbol("null"));
}

std::string TableToString(const Table& t) {
  std::string out;
  for (const Tuple& tup : t) {
    out += "[";
    for (const auto& [f, v] : tup.entries()) {
      out += f.str() + "=";
      for (const Item& it : *v) out += it.StringValue() + ",";
      out += ";";
    }
    out += "]";
  }
  return out;
}

AtomicValue RandomKeyForRange(uint64_t* state) {
  auto next = [&] {
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    return *state >> 33;
  };
  int v = static_cast<int>(next() % 12);
  switch (next() % 4) {
    case 0: return AtomicValue::Integer(v);
    case 1: return AtomicValue::Double(v + 0.5);
    case 2: return AtomicValue::Untyped(std::to_string(v));
    default: return AtomicValue::String("s" + std::to_string(v));
  }
}

/// Asserts hash join == ordered-index join == nested-loop reference.
void CheckAgainstReference(const Table& left, const Table& right,
                           const char* lf, const char* rf) {
  for (bool outer : {false, true}) {
    Result<Table> ref = ReferenceJoin(left, right, lf, rf, outer);
    ASSERT_OK(ref);
    for (bool ordered : {false, true}) {
      Result<Table> got =
          EqualityJoin(left, FieldKey(lf), right, FieldKey(rf), outer,
                       Symbol("null"), ordered);
      ASSERT_OK(got);
      EXPECT_EQ(TableToString(got.value()), TableToString(ref.value()))
          << "outer=" << outer << " ordered=" << ordered;
    }
  }
}

// ---- basic matching ----------------------------------------------------------

TEST(HashJoin, IntegerKeys) {
  Table left = {MakeTuple("a", AtomicValue::Integer(1)),
                MakeTuple("a", AtomicValue::Integer(2)),
                MakeTuple("a", AtomicValue::Integer(3))};
  Table right = {MakeTuple("b", AtomicValue::Integer(2)),
                 MakeTuple("b", AtomicValue::Integer(1)),
                 MakeTuple("b", AtomicValue::Integer(1))};
  CheckAgainstReference(left, right, "a", "b");
}

TEST(HashJoin, CrossTypeNumericPromotion) {
  // integer 1 must join decimal 1.0, float 1.0f, and double 1e0.
  Table left = {MakeTuple("a", AtomicValue::Integer(1)),
                MakeTuple("a", AtomicValue::Decimal(2.5))};
  Table right = {MakeTuple("b", AtomicValue::Decimal(1.0)),
                 MakeTuple("b", AtomicValue::Double(1.0)),
                 MakeTuple("b", AtomicValue::Float(2.5)),
                 MakeTuple("b", AtomicValue::Integer(9))};
  CheckAgainstReference(left, right, "a", "b");
  // Count explicitly: integer 1 matches two right tuples, decimal 2.5 one.
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_EQ(r.value().size(), 3u);
}

TEST(HashJoin, UntypedCastsToOtherSidesType) {
  // fs:convert-operand: untyped "07" vs integer 7 compares numerically
  // (untyped -> double), but untyped "07" vs untyped "7" compares as
  // STRINGS and must not match.
  Table left = {MakeTuple("a", AtomicValue::Untyped("07"))};
  Table right = {MakeTuple("b", AtomicValue::Integer(7)),
                 MakeTuple("b", AtomicValue::Untyped("7")),
                 MakeTuple("b", AtomicValue::Untyped("07"))};
  CheckAgainstReference(left, right, "a", "b");
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_EQ(r.value().size(), 2u);  // integer 7 and untyped "07"
}

TEST(HashJoin, UntypedVsStringComparesAsString) {
  Table left = {MakeTuple("a", AtomicValue::Untyped("x1"))};
  Table right = {MakeTuple("b", AtomicValue::String("x1")),
                 MakeTuple("b", AtomicValue::String("x2"))};
  CheckAgainstReference(left, right, "a", "b");
}

TEST(HashJoin, TypedStringNeverMatchesNumber) {
  // xs:string "7" vs xs:integer 7: incomparable (no untyped side).
  Table left = {MakeTuple("a", AtomicValue::String("7"))};
  Table right = {MakeTuple("b", AtomicValue::Integer(7))};
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_TRUE(r.value().empty());
}

TEST(HashJoin, LexicalTypesMatchOnlySameType) {
  Table left = {MakeTuple("a", AtomicValue::Lexical(AtomicType::kDate,
                                                    "2026-07-06"))};
  Table right = {
      MakeTuple("b", AtomicValue::Lexical(AtomicType::kDate, "2026-07-06")),
      MakeTuple("b", AtomicValue::Lexical(AtomicType::kTime, "2026-07-06")),
      MakeTuple("b", AtomicValue::Untyped("2026-07-06"))};
  CheckAgainstReference(left, right, "a", "b");
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_EQ(r.value().size(), 2u);  // same date + untyped converted to date
}

TEST(HashJoin, NaNNeverJoins) {
  Table left = {MakeTuple("a", AtomicValue::Double(std::nan("")))};
  Table right = {MakeTuple("b", AtomicValue::Double(std::nan(""))),
                 MakeTuple("b", AtomicValue::Double(1.0))};
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_TRUE(r.value().empty());
}

// ---- existential semantics and order -------------------------------------------

TEST(HashJoin, ExistentialSequenceKeysDeduplicate) {
  // A left key sequence matching one right tuple through TWO of its values
  // must produce the right tuple ONCE (the removeDuplicates of Figure 6).
  Table left = {MakeTupleSeq(
      "a", {AtomicValue::Integer(1), AtomicValue::Integer(2)})};
  Table right = {MakeTupleSeq(
      "b", {AtomicValue::Integer(1), AtomicValue::Integer(2)})};
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  EXPECT_EQ(r.value().size(), 1u);
  CheckAgainstReference(left, right, "a", "b");
}

TEST(HashJoin, EmptyKeysMatchNothing) {
  Table left = {MakeTupleSeq("a", {}),
                MakeTuple("a", AtomicValue::Integer(1))};
  Table right = {MakeTuple("b", AtomicValue::Integer(1)),
                 MakeTupleSeq("b", {})};
  CheckAgainstReference(left, right, "a", "b");
}

TEST(HashJoin, PreservesLeftMajorRightMinorOrder) {
  // Matches must appear in ORIGINAL right order, not hash order
  // (Figure 6's order counter + sortOnOrderField).
  Table left = {MakeTupleSeq("a", {AtomicValue::Integer(5),
                                   AtomicValue::Integer(3)})};
  Table right;
  for (int i : {3, 9, 5, 3, 5}) {
    Tuple t;
    t.Set(Symbol("b"), {AtomicValue::Integer(i)});
    t.Set(Symbol("pos"), {AtomicValue::Integer(
                             static_cast<int64_t>(right.size()))});
    right.push_back(t);
  }
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 false, Symbol("null"), false);
  ASSERT_OK(r);
  ASSERT_EQ(r.value().size(), 4u);
  // Right positions 0,2,3,4 in original order despite probing key 5 first.
  std::vector<int64_t> pos;
  for (const Tuple& t : r.value()) {
    pos.push_back((*t.Get(Symbol("pos")))[0].atomic().AsInt());
  }
  EXPECT_EQ(pos, (std::vector<int64_t>{0, 2, 3, 4}));
}

TEST(HashJoin, OuterJoinEmitsNullFlaggedRows) {
  Table left = {MakeTuple("a", AtomicValue::Integer(1)),
                MakeTuple("a", AtomicValue::Integer(99))};
  Table right = {MakeTuple("b", AtomicValue::Integer(1))};
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 true, Symbol("null"), false);
  ASSERT_OK(r);
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_FALSE((*r.value()[0].Get(Symbol("null")))[0].atomic().AsBool());
  EXPECT_TRUE((*r.value()[1].Get(Symbol("null")))[0].atomic().AsBool());
  EXPECT_EQ(r.value()[1].Get(Symbol("b")), nullptr);  // no right fields
}

TEST(HashJoin, ResidualPredicateFiltersAndAffectsNullRows) {
  Table left = {MakeTuple("a", AtomicValue::Integer(1))};
  Table right = {MakeTuple("b", AtomicValue::Integer(1)),
                 MakeTuple("b", AtomicValue::Integer(1))};
  right[0].Set(Symbol("keep"), {AtomicValue::Boolean(false)});
  right[1].Set(Symbol("keep"), {AtomicValue::Boolean(true)});
  PredFn residual = [](const Tuple& t) -> Result<bool> {
    return (*t.Get(Symbol("keep")))[0].atomic().AsBool();
  };
  Result<Table> r = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                 true, Symbol("null"), false, &residual);
  ASSERT_OK(r);
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_FALSE((*r.value()[0].Get(Symbol("null")))[0].atomic().AsBool());
  // When the residual rejects every match, the outer join emits a null row.
  PredFn reject_all = [](const Tuple&) -> Result<bool> { return false; };
  Result<Table> r2 = EqualityJoin(left, FieldKey("a"), right, FieldKey("b"),
                                  true, Symbol("null"), false, &reject_all);
  ASSERT_OK(r2);
  ASSERT_EQ(r2.value().size(), 1u);
  EXPECT_TRUE((*r2.value()[0].Get(Symbol("null")))[0].atomic().AsBool());
}

// ---- inequality (range) sort join ----------------------------------------------

/// Nested-loop reference for an arbitrary comparison operator.
Result<Table> ReferenceCompJoin(const Table& left, const Table& right,
                                CompOp op, bool outer) {
  Symbol l("a"), r("b");
  PredFn pred = [l, r, op](const Tuple& t) -> Result<bool> {
    const Sequence* a = t.Get(l);
    const Sequence* b = t.Get(r);
    if (a == nullptr || b == nullptr) return false;
    return GeneralCompare(op, *a, *b);
  };
  return NestedLoopJoin(left, right, pred, outer, Symbol("null"));
}

void CheckRangeAgainstReference(const Table& left, const Table& right,
                                CompOp op) {
  Result<std::shared_ptr<const MaterializedRangeInner>> inner =
      MaterializeRangeInner(right, FieldKey("b"));
  ASSERT_OK(inner);
  for (bool outer : {false, true}) {
    Result<Table> ref = ReferenceCompJoin(left, right, op, outer);
    ASSERT_OK(ref);
    Result<Table> got =
        InequalityJoinWithIndex(left, FieldKey("a"), right, *inner.value(),
                                op, outer, Symbol("null"));
    ASSERT_OK(got);
    EXPECT_EQ(TableToString(got.value()), TableToString(ref.value()))
        << "op=" << CompOpName(op) << " outer=" << outer;
  }
}

TEST(RangeJoin, NumericInequalities) {
  Table left = {MakeTuple("a", AtomicValue::Integer(5)),
                MakeTuple("a", AtomicValue::Decimal(2.5)),
                MakeTuple("a", AtomicValue::Untyped("4"))};
  Table right = {MakeTuple("b", AtomicValue::Integer(1)),
                 MakeTuple("b", AtomicValue::Double(3.0)),
                 MakeTuple("b", AtomicValue::Integer(5)),
                 MakeTuple("b", AtomicValue::Untyped("2"))};
  for (CompOp op : {CompOp::kLt, CompOp::kLe, CompOp::kGt, CompOp::kGe}) {
    CheckRangeAgainstReference(left, right, op);
  }
}

TEST(RangeJoin, StringAndUntypedLexicalOrder) {
  Table left = {MakeTuple("a", AtomicValue::String("banana")),
                MakeTuple("a", AtomicValue::Untyped("cherry"))};
  Table right = {MakeTuple("b", AtomicValue::String("apple")),
                 MakeTuple("b", AtomicValue::Untyped("banana")),
                 MakeTuple("b", AtomicValue::String("date"))};
  for (CompOp op : {CompOp::kLt, CompOp::kLe, CompOp::kGt, CompOp::kGe}) {
    CheckRangeAgainstReference(left, right, op);
  }
}

TEST(RangeJoin, UntypedVsUntypedComparesAsString) {
  // "10" < "9" lexically (the Table 2 row-1 trap) — both the reference and
  // the range join must agree.
  Table left = {MakeTuple("a", AtomicValue::Untyped("10"))};
  Table right = {MakeTuple("b", AtomicValue::Untyped("9"))};
  CheckRangeAgainstReference(left, right, CompOp::kLt);
  // ...but untyped "10" vs integer 9 compares numerically (no match).
  Table right2 = {MakeTuple("b", AtomicValue::Integer(9))};
  CheckRangeAgainstReference(left, right2, CompOp::kLt);
}

TEST(RangeJoin, ExistentialMultiValueKeys) {
  Table left = {MakeTupleSeq("a", {AtomicValue::Integer(1),
                                   AtomicValue::Integer(10)})};
  Table right = {MakeTuple("b", AtomicValue::Integer(5)),
                 MakeTuple("b", AtomicValue::Integer(20))};
  for (CompOp op : {CompOp::kLt, CompOp::kGt}) {
    CheckRangeAgainstReference(left, right, op);
  }
}

TEST(RangeJoin, RandomizedDifferential) {
  uint64_t state = 99;
  for (int round = 0; round < 6; round++) {
    Table left, right;
    for (int i = 0; i < 20; i++) {
      left.push_back(MakeTuple("a", RandomKeyForRange(&state)));
      right.push_back(MakeTuple("b", RandomKeyForRange(&state)));
    }
    for (CompOp op : {CompOp::kLt, CompOp::kLe, CompOp::kGt, CompOp::kGe}) {
      CheckRangeAgainstReference(left, right, op);
    }
  }
}

// ---- randomized differential property -------------------------------------------

struct RandomJoinParams {
  uint64_t seed;
  int left_size;
  int right_size;
  int key_space;
};

class RandomJoinTest : public ::testing::TestWithParam<RandomJoinParams> {};

AtomicValue RandomKey(uint64_t* state, int key_space) {
  auto next = [&] {
    *state = *state * 6364136223846793005ull + 1442695040888963407ull;
    return *state >> 33;
  };
  int v = static_cast<int>(next() % key_space);
  switch (next() % 6) {
    case 0: return AtomicValue::Integer(v);
    case 1: return AtomicValue::Decimal(v);
    case 2: return AtomicValue::Double(v);
    case 3: return AtomicValue::Untyped(std::to_string(v));
    case 4: return AtomicValue::String(std::to_string(v));
    default: return AtomicValue::Untyped("k" + std::to_string(v));
  }
}

TEST_P(RandomJoinTest, HashAndSortAgreeWithNestedLoop) {
  const RandomJoinParams& p = GetParam();
  uint64_t state = p.seed;
  Table left, right;
  for (int i = 0; i < p.left_size; i++) {
    Sequence keys;
    int n = 1 + static_cast<int>(state % 3);
    for (int k = 0; k < n; k++) keys.push_back(RandomKey(&state, p.key_space));
    Tuple t = MakeTupleSeq("a", std::move(keys));
    t.Set(Symbol("li"), {AtomicValue::Integer(i)});
    left.push_back(std::move(t));
  }
  for (int i = 0; i < p.right_size; i++) {
    Sequence keys;
    int n = 1 + static_cast<int>(state % 2);
    for (int k = 0; k < n; k++) keys.push_back(RandomKey(&state, p.key_space));
    Tuple t = MakeTupleSeq("b", std::move(keys));
    t.Set(Symbol("ri"), {AtomicValue::Integer(i)});
    right.push_back(std::move(t));
  }
  CheckAgainstReference(left, right, "a", "b");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomJoinTest,
    ::testing::Values(RandomJoinParams{1, 10, 10, 4},
                      RandomJoinParams{2, 25, 15, 8},
                      RandomJoinParams{3, 40, 40, 5},
                      RandomJoinParams{4, 60, 30, 20},
                      RandomJoinParams{5, 13, 77, 3},
                      RandomJoinParams{6, 50, 50, 100},
                      RandomJoinParams{7, 1, 50, 2},
                      RandomJoinParams{8, 50, 1, 2},
                      RandomJoinParams{9, 0, 10, 2},
                      RandomJoinParams{10, 10, 0, 2}),
    [](const ::testing::TestParamInfo<RandomJoinParams>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---- composite keys ------------------------------------------------------------

TEST(CompositeJoin, EveryComponentVerifiedUnderTable2) {
  // a1 = b1 and a2 = b2 keyed at once: each conjunct stays existential over
  // its own multi-valued keys and promotes under Table 2 on its own, so the
  // composite index must agree with nested loops over the conjunction.
  uint64_t state = 7;
  auto next = [&state](int n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>((state >> 33) % n);
  };
  auto keys = [&next]() {
    // 0-2 values of 1, 2 or 3 as integer, double, untyped "n" or "n.0".
    Sequence s;
    for (int i = next(3); i > 0; i--) {
      int v = 1 + next(3);
      switch (next(4)) {
        case 0: s.push_back(AtomicValue::Integer(v)); break;
        case 1: s.push_back(AtomicValue::Double(v)); break;
        case 2: s.push_back(AtomicValue::Untyped(std::to_string(v))); break;
        default: s.push_back(AtomicValue::Untyped(std::to_string(v) + ".0"));
      }
    }
    return s;
  };
  auto row = [&](const char* f1, const char* f2) {
    Tuple t;
    t.Set(Symbol(f1), keys());
    t.Set(Symbol(f2), keys());
    return t;
  };
  Table left, right;
  for (int i = 0; i < 40; i++) left.push_back(row("a1", "a2"));
  for (int i = 0; i < 40; i++) right.push_back(row("b1", "b2"));
  PredFn both = [](const Tuple& t) -> Result<bool> {
    for (auto [l, r] : {std::pair<const char*, const char*>{"a1", "b1"},
                        {"a2", "b2"}}) {
      XQC_ASSIGN_OR_RETURN(bool eq, GeneralCompare(CompOp::kEq,
                                                   *t.Get(Symbol(l)),
                                                   *t.Get(Symbol(r))));
      if (!eq) return false;
    }
    return true;
  };
  for (bool outer : {false, true}) {
    Result<Table> ref = NestedLoopJoin(left, right, both, outer, Symbol("n"));
    ASSERT_OK(ref);
    if (!outer) EXPECT_GT(ref.value().size(), 3u);
    for (bool ordered : {false, true}) {
      auto inner = MaterializeInner(
          right, std::vector<KeyFn>{FieldKey("b1"), FieldKey("b2")}, ordered,
          std::vector<KeyMode>(2, KeyMode::kGeneralKeys));
      ASSERT_OK(inner);
      Table got;
      for (const Tuple& l : left) {
        std::vector<Sequence> probe;
        for (const char* f : {"a1", "a2"}) {
          Result<Sequence> k = FieldKey(f)(l);
          ASSERT_OK(k);
          probe.push_back(k.take());
        }
        Status st = EqualityProbe(l, probe, right, *inner.value(), outer,
                                  Symbol("n"), nullptr, &got);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      EXPECT_EQ(TableToString(got), TableToString(ref.value()))
          << "outer=" << outer << " ordered=" << ordered;
    }
  }
}

}  // namespace
}  // namespace xqc
