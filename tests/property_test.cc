// Property-based differential testing: randomly generated queries are
// executed under every engine configuration (baseline interpreter, algebra
// without rewritings, optimized plans with nested-loop / hash / ordered
// joins) and must all agree. This is the broad-spectrum check that the
// compilation rules, the Figure 5 rewritings, and the Figure 6 join
// algorithms preserve semantics on query shapes nobody hand-wrote.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "test_util.h"

namespace xqc {
namespace {

using testutil::MustParseXml;

/// Deterministic generator state.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed * 2654435769u + 1) {}

  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  int Below(int n) { return static_cast<int>(Next() % n); }
  bool Coin() { return Next() % 2 == 0; }

  /// A numeric-valued expression over in-scope numeric variables.
  std::string Numeric(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      if (!num_vars_.empty() && Coin()) {
        return "$" + num_vars_[Below(static_cast<int>(num_vars_.size()))];
      }
      return std::to_string(Below(20));
    }
    switch (Below(6)) {
      case 0: return "(" + Numeric(depth - 1) + " + " + Numeric(depth - 1) + ")";
      case 1: return "(" + Numeric(depth - 1) + " - " + Numeric(depth - 1) + ")";
      case 2: return "(" + Numeric(depth - 1) + " * " + Numeric(depth - 1) + ")";
      case 3: return "count(" + NumSeq(depth - 1) + ")";
      case 4: return "sum(" + NumSeq(depth - 1) + ")";
      default:
        return "(if (" + Boolean(depth - 1) + ") then " + Numeric(depth - 1) +
               " else " + Numeric(depth - 1) + ")";
    }
  }

  /// A sequence-of-numbers expression.
  std::string NumSeq(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      switch (Below(4)) {
        case 0: {
          int lo = Below(5), hi = lo + Below(6);
          return "(" + std::to_string(lo) + " to " + std::to_string(hi) + ")";
        }
        case 1:
          return "(" + Numeric(0) + ", " + Numeric(0) + ", " + Numeric(0) + ")";
        case 2:
          return "()";
        default:
          return "(" + Numeric(0) + ")";
      }
    }
    switch (Below(4)) {
      case 0: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = "for $" + var + " in " + NumSeq(depth - 1) +
                           (Coin() ? " where " + Boolean(depth - 1) : "") +
                           " return " + Numeric(depth - 1);
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 1: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = "for $" + var + " in " + NumSeq(depth - 1) +
                           " order by $" + var +
                           (Coin() ? " descending" : "") + " return $" + var;
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 2:
        return "distinct-values(" + NumSeq(depth - 1) + ")";
      default:
        return "reverse(" + NumSeq(depth - 1) + ")";
    }
  }

  /// A boolean expression.
  std::string Boolean(int depth) {
    if (depth <= 0 || Below(3) == 0) {
      switch (Below(4)) {
        case 0: return "true()";
        case 1: return "false()";
        default:
          return "(" + Numeric(0) + (Coin() ? " = " : " < ") + Numeric(0) + ")";
      }
    }
    switch (Below(6)) {
      case 0: return "(" + Boolean(depth - 1) + " and " + Boolean(depth - 1) + ")";
      case 1: return "(" + Boolean(depth - 1) + " or " + Boolean(depth - 1) + ")";
      case 2: return "not(" + Boolean(depth - 1) + ")";
      case 3: {
        std::string var = FreshVar();
        num_vars_.push_back(var);
        std::string body = (Coin() ? "some" : "every") + std::string(" $") +
                           var + " in " + NumSeq(depth - 1) + " satisfies " +
                           Boolean(depth - 1);
        num_vars_.pop_back();
        return "(" + body + ")";
      }
      case 4:
        return "(" + NumSeq(depth - 1) + " = " + NumSeq(depth - 1) + ")";
      default:
        return "empty(" + NumSeq(depth - 1) + ")";
    }
  }

  /// A document-navigation query over the fixed test document.
  std::string DocQuery(int depth) {
    static const char* const kPaths[] = {
        "$doc//person", "$doc//person/@id", "$doc//order",
        "$doc//order/@buyer", "$doc/site/people/person/name",
        "$doc//person[age > 30]", "$doc//order[amount >= 20]",
    };
    std::string path = kPaths[Below(std::size(kPaths))];
    switch (Below(5)) {
      case 0:
        return "count(" + path + ")";
      case 1: {
        std::string var = FreshVar();
        return "for $" + var + " in " + path + " return <i>{string($" + var +
               "/@id), " + Numeric(depth - 1) + "}</i>";
      }
      case 2: {
        // The join shape: nested correlated block with an aggregate.
        std::string p = FreshVar();
        std::string t = FreshVar();
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order where $" + t +
               "/@buyer = $" + p + "/@id return $" + t +
               " return (string($" + p + "/@id), count($a))";
      }
      case 3: {
        std::string p = FreshVar();
        return "for $" + p + " in $doc//person " +
               "where some $t in $doc//order satisfies $t/@buyer = $" + p +
               "/@id return $" + p + "/name/text()";
      }
      default: {
        std::string p = FreshVar();
        return "for $" + p + " at $i in " + path +
               " where $i <= " + std::to_string(1 + Below(4)) +
               " return string($" + p + ")";
      }
    }
  }

  /// Query shapes that drive the unnesting machinery hard: correlated
  /// aggregates (GroupBy introduction), multi-level nesting, constructors
  /// wrapping nested blocks (hoisting), and mixed inequality predicates.
  std::string UnnestingQuery(int depth) {
    const char* agg = (const char*[]){"count", "sum", "avg", "min",
                                      "max"}[Below(5)];
    std::string p = FreshVar(), t = FreshVar();
    switch (Below(5)) {
      case 0:
        // Aggregate over a correlated equality block (the Figure 4 family).
        return "for $" + p + " in $doc//person " +
               "let $a := " + agg + "(for $" + t +
               " in $doc//order where $" + t + "/@buyer = $" + p +
               "/@id return number($" + t + "/amount)) " +
               "return (string($" + p + "/@id), $a)";
      case 1:
        // Nested block inside a constructor (exercises hoisting).
        return "for $" + p + " in $doc//person return <r id=\"{$" + p +
               "/@id}\">{ " + agg + "(for $" + t + " in $doc//order where $" +
               t + "/@buyer = $" + p + "/@id return 1) }</r>";
      case 2: {
        // Two-level nesting with an inner inequality.
        std::string u = FreshVar();
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order " +
               "          where $" + t + "/@buyer = $" + p + "/@id " +
               "          return count(for $" + u + " in $doc//order " +
               "                       where number($" + u +
               "/amount) < number($" + t + "/amount) return 1) " +
               "return ($" + p + "/name/text(), sum($a))";
      }
      case 3:
        // Inequality join (range sort join path).
        return "for $" + p + " in $doc//person " +
               "let $a := for $" + t + " in $doc//order " +
               "          where number($" + t + "/amount) > $" + p +
               "/age + " + std::to_string(Below(20) - 10) +
               "          return $" + t +
               " order by count($a) descending, string($" + p +
               "/@id) return count($a)";
      default:
        // Path-predicate join variant (Section 4's Q1 form).
        return "for $" + p + " in $doc//person " +
               "let $a := $doc//order[@buyer = $" + p + "/@id]" +
               "[number(amount) > " + std::to_string(Below(30)) + "] " +
               "return count($a) * " + Numeric(depth - 1);
    }
  }

  std::string Query(int kind, int depth) {
    switch (kind % 4) {
      case 0: return NumSeq(depth);
      case 1: return DocQuery(depth);
      case 2: return UnnestingQuery(depth);
      default:
        return "(" + NumSeq(depth) + ", " + Numeric(depth) + ")";
    }
  }

 private:
  std::string FreshVar() { return "v" + std::to_string(counter_++); }

  uint64_t state_;
  int counter_ = 0;
  std::vector<std::string> num_vars_;
};

// The shared input document ($doc in every generated query).
const char* kPropertyDoc = R"(
      <site>
        <people>
          <person id="p0"><name>Ann</name><age>31</age></person>
          <person id="p1"><name>Bob</name><age>25</age></person>
          <person id="p2"><name>Cyd</name><age>44</age></person>
          <person id="p3"><name>Dan</name><age>19</age></person>
        </people>
        <orders>
          <order id="o0" buyer="p0"><amount>10</amount></order>
          <order id="o1" buyer="p2"><amount>25</amount></order>
          <order id="o2" buyer="p0"><amount>40</amount></order>
          <order id="o3" buyer="p9"><amount>5</amount></order>
        </orders>
      </site>)";

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    doc_ = new NodePtr(MustParseXml(kPropertyDoc));
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }
  static NodePtr* doc_;
};

NodePtr* PropertyTest::doc_ = nullptr;

TEST_P(PropertyTest, AllConfigurationsAgree) {
  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  const EngineOptions kConfigs[] = {
      {false, false, JoinImpl::kNestedLoop},
      {true, false, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kNestedLoop},
      {true, true, JoinImpl::kHash},
      {true, true, JoinImpl::kSort},
      // Sort-elision oracle: forcing every TreeJoin through the full
      // DistinctDocOrder sort must not change a byte, in either exec mode;
      // nor may disabling the structural indexes.
      {true, true, JoinImpl::kHash, ExecMode::kStreaming,
       /*force_sort=*/true},
      {true, true, JoinImpl::kHash, ExecMode::kMaterialize,
       /*force_sort=*/true},
      {true, true, JoinImpl::kHash, ExecMode::kMaterialize,
       /*force_sort=*/false, /*use_doc_index=*/false},
  };
  int errored = 0;
  const int kQueriesPerSeed = 8;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query =
        "declare variable $doc external; " + gen.Query(qi, 3);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("doc"), {Item(*doc_)});

    std::string reference;
    bool reference_error = false;
    for (size_t i = 0; i < std::size(kConfigs); i++) {
      Result<PreparedQuery> pq = engine.Prepare(query, kConfigs[i]);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      if (i == 0) {
        reference_error = !r.ok();
        if (reference_error) {
          errored++;
          break;  // generated a dynamically erroneous query; skip
        }
        reference = r.value();
      } else {
        ASSERT_TRUE(r.ok())
            << "config " << i << " errored where baseline succeeded: "
            << r.status().ToString() << "\nquery: " << query;
        ASSERT_EQ(r.value(), reference)
            << "config " << i << " disagrees\nquery: " << query << "\nplan: "
            << pq.value().ExplainPlan();
      }
    }
  }
  // The generator should produce mostly well-typed queries.
  EXPECT_LE(errored, kQueriesPerSeed / 2) << "seed " << seed;
}

// Batch-size ablation: the streaming engine's vectorized iterators are an
// internal amortization only. Sweeping batch_size over 1 (the
// tuple-at-a-time oracle), tiny sizes that force every partial-batch and
// carry-over path (2, 3, 7), and the default 1024 must be byte-identical
// on every generated query — including ones that error.
TEST_P(PropertyTest, BatchSizesAgree) {
  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  const int kBatchSizes[] = {1, 2, 3, 7, 1024};
  const int kQueriesPerSeed = 6;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query =
        "declare variable $doc external; " + gen.Query(qi, 3);
    DynamicContext ctx;
    ctx.BindVariable(Symbol("doc"), {Item(*doc_)});

    std::string reference;
    for (size_t i = 0; i < std::size(kBatchSizes); i++) {
      EngineOptions opts;  // streaming algebra, optimized (the default)
      opts.batch_size = kBatchSizes[i];
      Result<PreparedQuery> pq = engine.Prepare(query, opts);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
      if (i == 0) {
        reference = got;
      } else {
        ASSERT_EQ(got, reference)
            << "batch_size=" << kBatchSizes[i]
            << " disagrees with the tuple-at-a-time oracle\nquery: " << query
            << "\nplan: " << pq.value().ExplainPlan();
      }
    }
  }
}

int64_t NestedFamilyParallelismAgrees(uint64_t seed);

// Parallelism ablation: generated queries rewritten to scan a small
// fn:collection corpus must be byte-identical at parallelism 1 (the serial
// oracle), 2, and 4 — including queries that error, and including the many
// generated shapes that are statically ineligible and take the serial
// fallback. This is the broad-spectrum check for the partition/merge path:
// most shapes exercise the eligibility analyzer's "reject" verdicts, the
// eligible ones exercise the doc-partitioned k-way merge. The
// constructor-nested FLWOR family (below) then exercises the driving-scan
// split of flat join / GroupBy plans.
TEST_P(PropertyTest, ParallelismLevelsAgree) {
  static const std::string* corpus_dir = [] {
    auto* dir = new std::string(::testing::TempDir() + "xqc_property_corpus");
    std::system(("rm -rf " + *dir + " && mkdir -p " + *dir).c_str());
    // Three members with distinct content so cross-document order and
    // per-document results are distinguishable in the merged output.
    const char* members[3] = {
        "<site><people><person id=\"p0\"><name>Ann</name><age>31</age>"
        "</person></people></site>",
        "<site><people><person id=\"p1\"><name>Bob</name><age>25</age>"
        "</person><person id=\"p2\"><name>Cyd</name><age>44</age>"
        "</person></people></site>",
        "<site><orders><order oid=\"o1\" by=\"p2\"><total>15</total>"
        "</order></orders></site>"};
    for (int i = 0; i < 3; i++) {
      std::ofstream out(*dir + "/m" + std::to_string(i) + ".xml",
                        std::ios::trunc);
      out << members[i];
    }
    return dir;
  }();

  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  const std::string call = "fn:collection(\"" + *corpus_dir + "\")";
  const int kLevels[] = {1, 2, 4};
  const int kQueriesPerSeed = 4;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query = gen.Query(qi, 3);
    for (size_t pos = 0; (pos = query.find("$doc", pos)) != std::string::npos;
         pos += call.size()) {
      query.replace(pos, 4, call);
    }

    std::string reference;
    for (size_t i = 0; i < std::size(kLevels); i++) {
      EngineOptions opts;
      opts.parallelism = kLevels[i];
      DynamicContext ctx;
      Result<PreparedQuery> pq = engine.Prepare(query, opts);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
      if (i == 0) {
        reference = got;
      } else {
        ASSERT_EQ(got, reference)
            << "parallelism=" << kLevels[i]
            << " disagrees with the serial oracle\nquery: " << query
            << "\nplan: " << pq.value().ExplainPlan();
      }
    }
  }
  NestedFamilyParallelismAgrees(seed);
}

// DocumentStore ablation: the same generated queries with $doc rewritten
// into fn:doc calls must be byte-identical with the store enabled and
// disabled (and cheap on the store side — one parse total, then hits).
TEST_P(PropertyTest, DocStoreOnAndOffAgree) {
  static const std::string* doc_path = [] {
    auto* p = new std::string(::testing::TempDir() + "xqc_property_doc.xml");
    std::ofstream out(*p, std::ios::trunc);
    out << kPropertyDoc;
    return p;
  }();

  uint64_t seed = GetParam();
  Gen gen(seed);
  Engine engine;
  EngineOptions store_on;
  EngineOptions store_off;
  store_off.use_doc_store = false;
  const std::string call = "doc(\"" + *doc_path + "\")";
  const int kQueriesPerSeed = 4;
  for (int qi = 0; qi < kQueriesPerSeed; qi++) {
    std::string query = gen.Query(qi, 3);
    for (size_t pos = 0; (pos = query.find("$doc", pos)) != std::string::npos;
         pos += call.size()) {
      query.replace(pos, 4, call);
    }

    std::string results[2];
    const EngineOptions* configs[2] = {&store_on, &store_off};
    for (int i = 0; i < 2; i++) {
      DynamicContext ctx;
      Result<PreparedQuery> pq = engine.Prepare(query, *configs[i]);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      results[i] = r.ok() ? r.value() : "ERROR:" + r.status().code();
    }
    ASSERT_EQ(results[0], results[1])
        << "store-on and store-off disagree\nquery: " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 33),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- constructor-nested FLWOR family -----------------------------------------
// Clio-style mappings (Figure 1): FLWOR blocks nested 2-4 levels deep inside
// element constructors, with sibling blocks, correlated by 1-2 equality
// conjuncts. The Figure 5 rules flatten these into one join/group-by plan,
// so this family checks that flattening — and the composite-key Figure 6
// index — against the interpreter. The document makes blocks empty for
// some outer tuples (the first `a` matches nothing at all), gives elements
// several `v` keys, and mixes untyped with numeric keys so Table 2
// promotion decides matches ("03" = 3 as a number, not as a string).
const char* kNestedDoc = R"(
      <db>
        <a id="a0" k="zz" g="9"><v>99</v><n>70</n></a>
        <a id="a1" k="p" g="1"><v>1</v><v>2</v><n>1</n></a>
        <a id="a2" k="q" g="2"><v>2</v><n>2.0</n></a>
        <a id="a3" k="p" g="2"><v>3</v><n>03</n></a>
        <b id="b0" k="p" g="1"><v>2</v><v>3</v><n>1</n></b>
        <b id="b1" k="q" g="2"><v>5</v><n>2</n></b>
        <b id="b2" k="p" g="2"><v>1</v><n>3</n></b>
        <b id="b3" k="r" g="1"><n>x</n></b>
        <c id="c0" k="q" g="2"><v>5</v><v>1</v><n>2</n></c>
        <c id="c1" k="p" g="1"><v>3</v><n>1.0</n></c>
        <c id="c2" k="p" g="2"><n>3</n></c>
        <d id="d0" k="p" g="2"><v>2</v><n>3.0</n></d>
        <d id="d1" k="q" g="1"><v>5</v><v>1</v><n>1</n></d>
      </db>)";

class NestedGen {
 public:
  /// With `lets`, a nested block may instead be let-bound and its result
  /// read 0, 1 or 2 times or navigated ($r/.., root(), `is`): the cases
  /// where constructor copy elision must fall back to copying.
  explicit NestedGen(uint64_t seed, bool lets = false)
      : gen_(seed), lets_(lets) {}

  std::string Query() {
    vars_.clear();
    counter_ = 0;
    int levels = 2 + gen_.Below(3);
    return "<out>{ " + Block("a", levels - 1) + " }</out>";
  }

 private:
  /// `for $x in $doc/db/<elem> [where ...] return <elem id=..>{children}</..>`
  /// correlated with the enclosing blocks' variables.
  std::string Block(const char* elem, int below) {
    std::string x = "x" + std::to_string(counter_++);
    std::string where;
    if (!vars_.empty()) {
      int conjuncts = 1 + gen_.Below(2);
      for (int i = 0; i < conjuncts; i++) {
        // The parent first; a second conjunct may reach a grandparent.
        const std::string& outer =
            i > 0 && vars_.size() > 1 && gen_.Coin() ? vars_[vars_.size() - 2]
                                                     : vars_.back();
        where += (i == 0 ? " where " : " and ") + Conjunct(x, outer);
      }
    }
    vars_.push_back(x);
    std::string lets, children;
    if (below > 0) {
      static const char* const kElems[] = {"b", "c", "d"};
      int siblings = 1 + gen_.Below(2);
      for (int i = 0; i < siblings; i++) {
        std::string block = Block(kElems[gen_.Below(3)], below - 1);
        std::string s = "s" + std::to_string(i), t = "t" + std::to_string(i);
        int use = lets_ ? static_cast<int>(gen_.Below(5)) : 0;
        if (use == 0) {
          children += "<" + s + ">{ " + block + " }</" + s + ">";
          continue;
        }
        std::string r = "$r" + std::to_string(counter_++);
        lets += " let " + r + " := (" + block + ")";
        switch (use) {
          case 1:  // never read
            children += "<" + s + "/>";
            break;
          case 2:  // read once: handed over
            children += "<" + s + ">{ " + r + " }</" + s + ">";
            break;
          case 3:  // read twice: copied
            children += "<" + s + ">{ " + r + " }</" + s + "><" + t + ">{ " +
                        r + " }</" + t + ">";
            break;
          default:  // navigated after being placed
            children += "<" + s + ">{ " + r + " }</" + s + "><" + t +
                        ">{ count(" + r + "/..), for $e in " + r +
                        " return root($e) is $e, exists(<w>{ " + r +
                        " }</w>/*[. is " + r + "[1]]) }</" + t + ">";
            break;
        }
      }
    }
    vars_.pop_back();
    return "for $" + x + " in $doc/db/" + elem + lets + where + " return <" +
           elem + " id=\"{$" + x + "/@id}\">" + children + "</" + elem + ">";
  }

  std::string Conjunct(const std::string& y, const std::string& x) {
    switch (gen_.Below(5)) {
      case 0: return "$" + y + "/@k = $" + x + "/@k";
      case 1: return "$" + y + "/@g = $" + x + "/@g";
      case 2: return "$" + y + "/v = $" + x + "/v";  // multi-valued
      case 3: return "$" + y + "/n = number($" + x + "/n)";  // untyped=double
      default: return "$" + x + "/n = $" + y + "/n";  // untyped=untyped
    }
  }

  Gen gen_;
  bool lets_;
  std::vector<std::string> vars_;
  int counter_ = 0;
};

class NestedFlworTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NestedFlworTest, FlatPlansMatchInterpreter) {
  NodePtr doc = MustParseXml(kNestedDoc);
  NestedGen gen(GetParam());
  NestedGen let_gen(GetParam(), /*lets=*/true);
  Engine engine;
  const JoinImpl kJoins[] = {JoinImpl::kNestedLoop, JoinImpl::kHash,
                             JoinImpl::kSort};
  const int kQueriesPerSeed = 3;
  for (int qi = 0; qi < 2 * kQueriesPerSeed; qi++) {
    bool lets = qi >= kQueriesPerSeed;
    std::string query = "declare variable $doc external; " +
                        (lets ? let_gen.Query() : gen.Query());
    DynamicContext ctx;
    ctx.BindVariable(Symbol("doc"), {Item(doc)});
    std::string reference = testutil::InterpToString(query, &ctx);
    ASSERT_EQ(reference.rfind("ERROR:", 0), std::string::npos)
        << reference << "\nquery: " << query;
    for (JoinImpl join : kJoins) {
      for (int config = 0; config < 3; config++) {
        EngineOptions opts;
        opts.join_impl = join;
        if (config == 2) {
          opts.exec_mode = ExecMode::kMaterialize;
        } else {
          opts.batch_size = config == 0 ? 1 : 1024;
        }
        Result<PreparedQuery> pq = engine.Prepare(query, opts);
        ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
        Result<std::string> r = pq.value().ExecuteToString(&ctx);
        ASSERT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << query;
        ASSERT_EQ(r.value(), reference)
            << "join " << static_cast<int>(join) << " config " << config
            << "\nquery: " << query << "\nplan: " << pq.value().ExplainPlan();
        if (join == JoinImpl::kHash) {
          EXPECT_EQ(pq.value().last_exec_stats().nested_loop_joins, 0)
              << "query: " << query;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedFlworTest,
                         ::testing::Range<uint64_t>(1, 49),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// kNestedDoc's mix of keys (several `v` per element, untyped and numeric
/// `n`, rows matching nothing) over 48 `a` elements, so the outer block
/// yields enough driving rows for the driving-scan split.
std::string LargeNestedDoc() {
  static const char* const kKeys[] = {"p", "q", "r", "zz"};
  static const char* const kNums[] = {"1", "2.0", "03", "x", "2", "1.0"};
  std::string out = "<db>";
  auto elem = [&](const char* name, int count, int salt) {
    for (int i = 0; i < count; i++) {
      int h = i * 7 + salt;
      out += std::string("<") + name + " id=\"" + name + std::to_string(i) +
             "\" k=\"" + kKeys[h % 4] + "\" g=\"" +
             std::to_string(1 + h % 3) + "\">";
      for (int v = 0; v <= h % 3; v++) {
        out += "<v>" + std::to_string((h + v * 3) % 6) + "</v>";
      }
      out += std::string("<n>") + kNums[h % 6] + "</n></" + name + ">";
    }
  };
  elem("a", 48, 0);
  elem("b", 12, 1);
  elem("c", 12, 2);
  elem("d", 8, 3);
  return out + "</db>";
}

/// The family's flat plans at parallelism 1, 2 and 4: byte-identical
/// output, and the work counters of the serial run. Returns the number of
/// partitions the split runs made.
int64_t NestedFamilyParallelismAgrees(uint64_t seed) {
  static const NodePtr* doc = new NodePtr(MustParseXml(LargeNestedDoc()));
  NestedGen gen(seed);
  Engine engine;
  int64_t partitions = 0;
  for (int qi = 0; qi < 2; qi++) {
    std::string query = "declare variable $doc external; " + gen.Query();
    std::string reference;
    ExecStats ref_stats;
    for (int level : {1, 2, 4}) {
      EngineOptions opts;
      opts.parallelism = level;
      Result<PreparedQuery> pq = engine.Prepare(query, opts);
      EXPECT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      if (!pq.ok()) return partitions;
      DynamicContext ctx;
      ctx.BindVariable(Symbol("doc"), {Item(*doc)});
      Result<std::string> r = pq.value().ExecuteToString(&ctx);
      std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
      const ExecStats& st = pq.value().last_exec_stats();
      if (level == 1) {
        reference = got;
        ref_stats = st;
        continue;
      }
      partitions += st.parallel_partitions;
      EXPECT_EQ(got, reference) << "parallelism=" << level
                                << "\nquery: " << query;
      EXPECT_EQ(st.guard_steps, ref_stats.guard_steps) << query;
      EXPECT_EQ(st.source_tuples, ref_stats.source_tuples) << query;
      EXPECT_EQ(st.hash_joins, ref_stats.hash_joins) << query;
      EXPECT_EQ(st.composite_joins, ref_stats.composite_joins) << query;
      EXPECT_EQ(st.group_bys, ref_stats.group_bys) << query;
      EXPECT_EQ(st.nodes_copied, ref_stats.nodes_copied) << query;
      EXPECT_EQ(st.nodes_adopted, ref_stats.nodes_adopted) << query;
    }
  }
  return partitions;
}

TEST(NestedFlworFamily, SplitsByDrivingScan) {
  // The family reaches the driving-scan split, not just its fallbacks.
  int64_t partitions = 0;
  for (uint64_t seed = 1; seed < 9; seed++) {
    partitions += NestedFamilyParallelismAgrees(seed);
  }
  EXPECT_GT(partitions, 0);
}

TEST(NestedFlworFamily, ExercisesFlatteningAndCompositeKeys) {
  // The family reaches the new machinery: outer maps unnest, joins key on
  // two conjuncts at once, and no block is left running per outer tuple.
  NodePtr doc = MustParseXml(kNestedDoc);
  Engine engine;
  int outer_maps = 0, composite = 0;
  for (uint64_t seed = 1; seed < 49; seed++) {
    NestedGen gen(seed);
    for (int qi = 0; qi < 3; qi++) {
      std::string query = "declare variable $doc external; " + gen.Query();
      Result<PreparedQuery> pq = engine.Prepare(query);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      const OptimizerStats& s = pq.value().optimizer_stats();
      outer_maps += s.outer_map_through_group_by;
      testutil::UnnestShape shape =
          testutil::ShapeOf(*pq.value().compiled().plan);
      EXPECT_EQ(shape.nested_outer_maps + shape.in_products, 0)
          << "query: " << query << "\nplan: " << pq.value().ExplainPlan();
      DynamicContext ctx;
      ctx.BindVariable(Symbol("doc"), {Item(doc)});
      ASSERT_OK(pq.value().Execute(&ctx));
      const ExecStats& stats = pq.value().last_exec_stats();
      composite += static_cast<int>(stats.composite_joins);
      // Every nested block's result is handed to its constructor.
      EXPECT_EQ(stats.nodes_copied, 0) << "query: " << query;
    }
  }
  EXPECT_GT(outer_maps, 0);
  EXPECT_GT(composite, 0);
}

TEST(NestedFlworFamily, LetBoundBlocksExerciseBothRoutes) {
  // Let-bound block results read twice or navigated must be copied; those
  // read once are still handed over.
  NodePtr doc = MustParseXml(kNestedDoc);
  Engine engine;
  int64_t copied = 0, adopted = 0;
  for (uint64_t seed = 1; seed < 49; seed++) {
    NestedGen gen(seed, /*lets=*/true);
    for (int qi = 0; qi < 3; qi++) {
      std::string query = "declare variable $doc external; " + gen.Query();
      Result<PreparedQuery> pq = engine.Prepare(query);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      DynamicContext ctx;
      ctx.BindVariable(Symbol("doc"), {Item(doc)});
      ASSERT_OK(pq.value().Execute(&ctx));
      copied += pq.value().last_exec_stats().nodes_copied;
      adopted += pq.value().last_exec_stats().nodes_adopted;
    }
  }
  EXPECT_GT(copied, 0);
  EXPECT_GT(adopted, copied);
}

// The differential oracle extended to the concurrent path: a generated
// query is prepared once per configuration, a serial reference result is
// taken, and then every shared plan is executed from N threads with
// per-thread dynamic contexts over the same shared document. Every
// concurrent execution must reproduce the serial answer — this is the
// PreparedQuery-reuse contract (immutable after Prepare) under load.
TEST(ConcurrentPropertyTest, SharedPlansAgreeAcrossThreads) {
  NodePtr doc = MustParseXml(R"(
      <site>
        <people>
          <person id="p0"><name>Ann</name><age>31</age></person>
          <person id="p1"><name>Bob</name><age>25</age></person>
          <person id="p2"><name>Cyd</name><age>44</age></person>
        </people>
        <orders>
          <order id="o0" buyer="p0"><amount>10</amount></order>
          <order id="o1" buyer="p2"><amount>25</amount></order>
          <order id="o2" buyer="p0"><amount>40</amount></order>
        </orders>
      </site>)");
  Engine engine;
  const EngineOptions kConfigs[] = {
      {true, true, JoinImpl::kHash, ExecMode::kStreaming},
      {true, true, JoinImpl::kHash, ExecMode::kMaterialize},
      {true, true, JoinImpl::kNestedLoop, ExecMode::kStreaming},
  };
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 3;
  for (uint64_t seed = 101; seed < 106; seed++) {
    Gen gen(seed);
    // Kinds 1 and 2 generate document/join shapes (the plans that share
    // caches and symbols most aggressively).
    std::string query = "declare variable $doc external; " +
                        gen.Query(1 + static_cast<int>(seed % 2), 3);
    for (const EngineOptions& config : kConfigs) {
      Result<PreparedQuery> pq = engine.Prepare(query, config);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString() << "\nquery: " << query;
      const PreparedQuery& plan = pq.value();
      DynamicContext serial_ctx;
      serial_ctx.BindVariable(Symbol("doc"), {Item(doc)});
      Result<std::string> serial = plan.ExecuteToString(&serial_ctx);
      if (!serial.ok()) continue;  // dynamically erroneous shape: skip
      std::atomic<int> mismatches{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
          for (int i = 0; i < kRunsPerThread; i++) {
            DynamicContext ctx;
            ctx.BindVariable(Symbol("doc"), {Item(doc)});
            Result<std::string> r = plan.ExecuteToString(&ctx);
            if (!r.ok() || r.value() != serial.value()) mismatches++;
          }
        });
      }
      for (auto& th : threads) th.join();
      EXPECT_EQ(mismatches.load(), 0)
          << "concurrent executions diverged from serial\nquery: " << query;
    }
  }
}

}  // namespace
}  // namespace xqc
