// Constructor copy elision (src/runtime/construct.h, Op::consume,
// EvalCtx::owned_tuple): a content node that nothing else can observe is
// adopted into the new tree instead of deep-copied. Adoption must be
// indistinguishable from copying, so every query here is checked against
// the interpreter under nested-loop / hash / sort joins, streaming at batch
// sizes 1 and 1024, and materializing execution; the copy / adopt counters
// say which route the nodes took.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/guard.h"
#include "src/engine/engine.h"
#include "src/opt/consume_infer.h"
#include "src/runtime/construct.h"
#include "src/runtime/tuple.h"
#include "src/store/document_store.h"
#include "tests/test_util.h"

namespace xqc {
namespace {

using testutil::InterpToString;
using testutil::MustParseXml;

// ---- the construction primitive ---------------------------------------------

/// A one-node sequence holding the only reference the caller passes in.
/// (A braced Sequence{...} would copy from its initializer list, whose
/// temporary outlives the constructor call and so shares the node.)
Sequence One(NodePtr n) {
  Sequence s;
  s.push_back(std::move(n));
  return s;
}

/// <b><c/></b>, finalized: a fresh constructor result.
NodePtr FreshTree() {
  NodePtr b = NewElement(Symbol("b"));
  Append(b, NewElement(Symbol("c")));
  FinalizeTree(b);
  return b;
}

TEST(ConstructElement, AdoptsAnUnsharedRoot) {
  NodePtr b = FreshTree();
  Node* raw = b.get();
  ConstructCounts counts;
  Result<NodePtr> a =
      ConstructElement(Symbol("a"), One(std::move(b)), nullptr, &counts);
  ASSERT_OK(a);
  ASSERT_EQ(a.value()->children.size(), 1u);
  EXPECT_EQ(a.value()->children[0].get(), raw);
  EXPECT_EQ(raw->parent, a.value().get());
  EXPECT_EQ(counts.nodes_adopted, 2);
  EXPECT_EQ(counts.nodes_copied, 0);
  // The adopted subtree is renumbered inside the new tree's interval.
  EXPECT_TRUE(a.value()->ContainsStrict(*raw));
  EXPECT_TRUE(a.value()->ContainsStrict(*raw->children[0]));
  EXPECT_EQ(a.value()->SubtreeSize(), 3u);
}

TEST(ConstructElement, CopiesASharedRoot) {
  NodePtr b = FreshTree();
  NodePtr keep = b;  // another holder can observe the original
  ConstructCounts counts;
  Result<NodePtr> a =
      ConstructElement(Symbol("a"), One(b), nullptr, &counts);
  ASSERT_OK(a);
  EXPECT_NE(a.value()->children[0].get(), keep.get());
  EXPECT_EQ(keep->parent, nullptr);
  EXPECT_EQ(counts.nodes_copied, 2);
  EXPECT_EQ(counts.nodes_adopted, 0);
}

TEST(ConstructElement, CopiesANodeInsideATree) {
  NodePtr b = FreshTree();
  NodePtr c = b->children[0];
  Node* raw = c.get();
  c.reset();
  // The content holds the only outside reference, but the parent still
  // owns the node: it must be copied, and the source tree left intact.
  ConstructCounts counts;
  Result<NodePtr> a = ConstructElement(
      Symbol("a"), One(b->children[0]), nullptr, &counts);
  ASSERT_OK(a);
  EXPECT_NE(a.value()->children[0].get(), raw);
  EXPECT_EQ(b->children[0].get(), raw);
  EXPECT_EQ(raw->parent, b.get());
  EXPECT_EQ(counts.nodes_copied, 1);
}

TEST(ConstructElement, UnsharedDocumentSplicesItsUnsharedChildren) {
  NodePtr doc = NewDocument();
  Append(doc, NewElement(Symbol("x")));
  Append(doc, NewElement(Symbol("y")));
  FinalizeTree(doc);
  Node* x = doc->children[0].get();
  NodePtr y = doc->children[1];  // held elsewhere: copied
  ConstructCounts counts;
  Result<NodePtr> a = ConstructElement(
      Symbol("a"), One(std::move(doc)), nullptr, &counts);
  ASSERT_OK(a);
  ASSERT_EQ(a.value()->children.size(), 2u);
  EXPECT_EQ(a.value()->children[0].get(), x);
  EXPECT_NE(a.value()->children[1].get(), y.get());
  EXPECT_EQ(counts.nodes_adopted, 1);
  EXPECT_EQ(counts.nodes_copied, 1);
}

TEST(ConstructElement, AdoptingAndCopyingChargeTheGuardAlike) {
  GuardLimits limits;
  limits.max_memory_bytes = int64_t{1} << 40;
  QueryGuard adopt_guard(limits);
  QueryGuard copy_guard(limits);
  ConstructCounts adopted, copied;
  ASSERT_OK(ConstructElement(Symbol("a"), One(FreshTree()), &adopt_guard,
                             &adopted));
  NodePtr keep = FreshTree();
  ASSERT_OK(ConstructElement(Symbol("a"), One(keep), &copy_guard, &copied));
  EXPECT_EQ(adopted.nodes_adopted, 2);
  EXPECT_EQ(copied.nodes_copied, 2);
  EXPECT_EQ(adopt_guard.peak_memory_bytes(), copy_guard.peak_memory_bytes());
  EXPECT_EQ(adopt_guard.steps(), copy_guard.steps());
}

TEST(TupleTake, MovesOnlyUnsharedStorage) {
  Tuple t;
  t.Set(Symbol("f"), Sequence{Item(AtomicValue::Integer(7))});
  Tuple copy = t;  // shares the storage
  Sequence got = t.Take(Symbol("f"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(copy.Get(Symbol("f"))->size(), 1u);
  EXPECT_EQ(t.Get(Symbol("f"))->size(), 1u);
  copy = Tuple();
  got = t.Take(Symbol("f"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(t.Has(Symbol("f")));
  EXPECT_TRUE(t.Get(Symbol("f"))->empty());
  EXPECT_TRUE(t.Take(Symbol("absent")).empty());
}

// ---- consuming-read inference -------------------------------------------------

int ConsumingReads(const Op& op) {
  int n = op.kind == OpKind::kFieldAccess && op.consume ? 1 : 0;
  for (const OpPtr& d : op.deps) n += ConsumingReads(*d);
  for (const OpPtr& i : op.inputs) n += ConsumingReads(*i);
  for (const OrderSpecOp& s : op.specs) n += ConsumingReads(*s.key);
  return n;
}

int ConsumingReadsOf(const std::string& query) {
  Engine engine;
  Result<PreparedQuery> q = engine.Prepare(query);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return -1;
  return ConsumingReads(*q.value().compiled().plan);
}

TEST(ConsumingReads, OnlyTheSoleReaderOfAFieldConsumes) {
  EXPECT_EQ(ConsumingReadsOf("for $i in (1, 2) let $x := <b/> "
                             "return <a>{$x}</a>"),
            1);
  // Two readers of $x: neither may take it.
  EXPECT_EQ(ConsumingReadsOf("for $i in (1, 2) let $x := <b/> "
                             "return (<a>{$x}</a>, <d>{$x}</d>)"),
            0);
  // $i is read by the let and by the return.
  EXPECT_EQ(ConsumingReadsOf("for $i in (1, 2) let $x := <b>{$i}</b> "
                             "return ($i, <a>{$x}</a>)"),
            1);
}

TEST(ConsumingReads, GroupByKeysAndNullFlagsCountAsReaders) {
  // MapToItem{(IN#agg, IN#k, IN#n)}(GroupBy[agg,[k],[n]]{IN}{IN#x}(..)):
  // the GroupBy reads k and n itself, so only IN#agg and IN#x consume.
  const Symbol agg("agg"), k("k"), n("n"), x("x");
  CompiledQuery query;
  query.plan = OpMapToItem(
      MakeOp(OpKind::kSequence),
      OpGroupBy(agg, {k}, {n}, OpIn(), OpInField(x), OpEmptyTuples()));
  query.plan->deps[0]->inputs = {OpInField(agg), OpInField(k), OpInField(n)};
  EXPECT_EQ(AnnotateConsumingReads(&query), 2);
  const Op& seq = *query.plan->deps[0];
  EXPECT_TRUE(seq.inputs[0]->consume);
  EXPECT_FALSE(seq.inputs[1]->consume);
  EXPECT_FALSE(seq.inputs[2]->consume);
  EXPECT_TRUE(query.plan->inputs[0]->deps[1]->consume);
  // A second reader anywhere in the query, here a function body, stops
  // the hand-over.
  CompiledFunction f;
  f.plan = OpFieldAccess(agg, OpEmptyTuples());
  query.functions.emplace(Symbol("local:f"), f);
  EXPECT_EQ(AnnotateConsumingReads(&query), 1);
  EXPECT_FALSE(seq.inputs[0]->consume);
}

TEST(ConsumingReads, NestedBlockResultsReachTheirConstructorsByHandOver) {
  // Clio-style nesting: each inner block's result reaches its constructor
  // through one GroupBy field read.
  EXPECT_GE(ConsumingReadsOf(
                "declare variable $d external; "
                "<r>{ for $a in $d/r/a return <a>{ for $b in $d/r/b "
                "where $b/@k = $a/@k return <b/> }</a> }</r>"),
            1);
}

// ---- queries: every configuration against the interpreter ---------------------

struct Config {
  std::string name;
  EngineOptions options;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  const std::pair<const char*, JoinImpl> kJoins[] = {
      {"nl", JoinImpl::kNestedLoop},
      {"hash", JoinImpl::kHash},
      {"sort", JoinImpl::kSort}};
  for (const auto& [jname, join] : kJoins) {
    for (int mode = 0; mode < 3; mode++) {
      EngineOptions o;
      o.join_impl = join;
      if (mode == 2) {
        o.exec_mode = ExecMode::kMaterialize;
      } else {
        o.batch_size = mode == 0 ? 1 : 1024;
      }
      static const char* const kModes[] = {"stream1", "stream1024", "mat"};
      out.push_back({std::string(jname) + "/" + kModes[mode], o});
    }
  }
  return out;
}

/// Runs `query` under the interpreter and every algebra configuration and
/// expects `expected` from each. Returns the hash-join streaming run's
/// stats; the copy and adopt counters must agree across configurations.
ExecStats ExpectEverywhere(const std::string& query,
                           const std::string& expected,
                           DynamicContext* ctx) {
  EXPECT_EQ(InterpToString(query, ctx), expected) << "interpreter\n" << query;
  Engine engine;
  ExecStats reference;
  bool first = true;
  for (const Config& c : AllConfigs()) {
    Result<PreparedQuery> q = engine.Prepare(query, c.options);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return reference;
    Result<std::string> r = q.value().ExecuteToString(ctx);
    std::string got = r.ok() ? r.value() : "ERROR:" + r.status().code();
    EXPECT_EQ(got, expected) << c.name << "\n" << query;
    const ExecStats& s = q.value().last_exec_stats();
    if (first) {
      reference = s;
      first = false;
    } else {
      EXPECT_EQ(s.nodes_copied, reference.nodes_copied) << c.name << "\n"
                                                        << query;
      EXPECT_EQ(s.nodes_adopted, reference.nodes_adopted) << c.name << "\n"
                                                          << query;
    }
  }
  return reference;
}

ExecStats ExpectEverywhere(const std::string& query,
                           const std::string& expected) {
  DynamicContext ctx;
  return ExpectEverywhere(query, expected, &ctx);
}

TEST(CopySemantics, AdoptedLetNodeKeepsItsIdentity) {
  // The let-bound node is read three times: copied into <a>, and still a
  // parentless root afterwards.
  const std::string kExpected = "<a><b><c/></b></a>0 true";
  ExpectEverywhere(
      "let $x := <b><c/></b> return (<a>{$x}</a>, count($x/..), "
      "root($x) is $x)",
      kExpected);
  ExecStats s = ExpectEverywhere(
      "for $i in 1 return let $x := <b><c/></b> return (<a>{$x}</a>, "
      "count($x/..), root($x) is $x)",
      kExpected);
  EXPECT_EQ(s.nodes_copied, 2);  // <b><c/></b> into <a>
}

TEST(CopySemantics, ConstructedContentHasFreshIdentity) {
  ExpectEverywhere("let $x := <b/> return <a>{$x}</a>/b is $x", "false");
  ExpectEverywhere("for $i in (1, 2) let $x := <b/> return <a>{$x}</a>/b is $x",
                   "false false");
}

TEST(CopySemantics, OneNodeInTwoConstructors) {
  ExpectEverywhere("let $x := <b/> return (<a>{$x}</a>, <d>{$x}</d>)",
                   "<a><b/></a><d><b/></d>");
  ExecStats s = ExpectEverywhere(
      "for $i in (1, 2) let $x := <b>{$i}</b> "
      "return (<a>{$x}</a>, <d>{$x}</d>, count($x/..))",
      "<a><b>1</b></a><d><b>1</b></d>0<a><b>2</b></a><d><b>2</b></d>0");
  EXPECT_EQ(s.nodes_copied, 8);  // both placements, both iterations
}

TEST(CopySemantics, SoleReadsOutsideALendingLoopOnlyRead) {
  // $a and $b are each read once, by the join predicate, which runs on
  // joined rows no loop lends: those consuming reads must leave the rows
  // intact for every probe.
  ExpectEverywhere(
      "for $a in (1, 2, 3), $b in (2, 3, 4) where $a = $b "
      "return <r/>",
      "<r/><r/>");
  ExpectEverywhere(
      "for $a in (1, 2, 3), $b in (3, 2, 2) where $a = $b "
      "order by $b return <r/>",
      "<r/><r/><r/>");
}

TEST(CopySemantics, SingleReadIsAdoptedWithoutACopy) {
  ExecStats s = ExpectEverywhere(
      "for $i in (1, 2) let $x := <b><c>{$i}</c></b> return <a>{$x}</a>",
      "<a><b><c>1</c></b></a><a><b><c>2</c></b></a>");
  EXPECT_EQ(s.nodes_copied, 0);
  EXPECT_GT(s.nodes_adopted, 0);
}

const char* kJoinDoc = R"(
    <r>
      <a id="a1" k="1" g="1"/><a id="a2" k="2" g="1"/><a id="a3" k="9" g="2"/>
      <b id="b1" k="1" g="1"/><b id="b2" k="1" g="1"/><b id="b3" k="2" g="2"/>
      <c id="c1" k="1"/><c id="c2" k="2"/><c id="c3" k="1"/>
    </r>)";

TEST(CopySemantics, NestedBlockUnderADuplicatingJoin) {
  // $blk is bound once per $a and then duplicated by the join with $b, so
  // the duplicated rows share its storage: the consuming read must fall
  // back to copying while another row still holds the block.
  DynamicContext ctx;
  ctx.BindVariable(Symbol("d"), {Item(MustParseXml(kJoinDoc))});
  const std::string query =
      "declare variable $d external; "
      "<out>{ for $a in $d/r/a "
      "let $blk := (for $c in $d/r/c where $c/@k = $a/@k "
      "return <c>{string($c/@id)}</c>) "
      "for $b in $d/r/b where $b/@g = $a/@g "
      "return <row a=\"{$a/@id}\" b=\"{$b/@id}\">{$blk}</row> }</out>";
  const std::string expected =
      "<out><row a=\"a1\" b=\"b1\"><c>c1</c><c>c3</c></row>"
      "<row a=\"a1\" b=\"b2\"><c>c1</c><c>c3</c></row>"
      "<row a=\"a2\" b=\"b1\"><c>c2</c></row>"
      "<row a=\"a2\" b=\"b2\"><c>c2</c></row>"
      "<row a=\"a3\" b=\"b3\"/></out>";
  ExecStats s = ExpectEverywhere(query, expected, &ctx);
  EXPECT_GT(s.nodes_copied, 0);
}

TEST(CopySemantics, NestedBlocksAreAdoptedLevelByLevel) {
  DynamicContext ctx;
  ctx.BindVariable(Symbol("d"), {Item(MustParseXml(kJoinDoc))});
  ExecStats s = ExpectEverywhere(
      "declare variable $d external; "
      "<out>{ for $a in $d/r/a return <a id=\"{$a/@id}\">{ "
      "for $b in $d/r/b where $b/@k = $a/@k return <b id=\"{$b/@id}\">{ "
      "for $c in $d/r/c where $c/@k = $b/@k return <c/> }</b> }</a> }</out>",
      "<out><a id=\"a1\"><b id=\"b1\"><c/><c/></b><b id=\"b2\"><c/><c/></b>"
      "</a><a id=\"a2\"><b id=\"b3\"><c/></b></a><a id=\"a3\"/></out>",
      &ctx);
  EXPECT_EQ(s.nodes_copied, 0);
}

TEST(CopySemantics, DocumentNodesSplice) {
  ExpectEverywhere("<r>{document{<a/>, <b>{document{<c/>}}</b>}}</r>",
                   "<r><a/><b><c/></b></r>");
  ExpectEverywhere("document{document{<a/>, \"t\"}, <b/>}", "<a/>t<b/>");
  // A document read again after splicing keeps its children.
  ExpectEverywhere(
      "for $i in (1, 2) let $d := document{<a>{$i}</a>} "
      "return (<r>{$d}</r>, count($d/a), $d/a/.. is $d)",
      "<r><a>1</a></r>1 true<r><a>2</a></r>1 true");
}

TEST(CopySemantics, LeadingConstructedAttributes) {
  ExpectEverywhere("<e>{attribute x {1}, attribute y {2}, <f/>}</e>",
                   "<e x=\"1\" y=\"2\"><f/></e>");
  ExpectEverywhere(
      "for $i in (1, 2) let $a := attribute x {$i} "
      "return (<e>{$a}</e>, <g>{$a, <h/>}</g>)",
      "<e x=\"1\"/><g x=\"1\"><h/></g><e x=\"2\"/><g x=\"2\"><h/></g>");
  ExpectEverywhere("<e>{<f/>, attribute x {1}}</e>", "ERROR:XQTY0024");
}

TEST(CopySemantics, ConstructorsInCollectionScansAcrossParallelism) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "xqc_construct_test_" +
                    std::to_string(counter++);
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  for (int d = 0; d < 5; d++) {
    char name[32];
    std::snprintf(name, sizeof(name), "/m%03d.xml", d);
    std::ofstream out(dir + name);
    out << "<doc>";
    for (int i = 0; i < 3; i++) {
      out << "<item id=\"" << d * 3 + i << "\"><v>" << i << "</v></item>";
    }
    out << "</doc>";
  }
  const std::string coll = "fn:collection(\"" + dir + "\")";
  const std::string queries[] = {
      "for $i in " + coll + "//item return <w>{$i, <n>{string($i/@id)}</n>}</w>",
      "for $d in " + coll + "/doc return <m>{ for $i in $d/item "
          "let $x := <i>{string($i/@id)}</i> return <j>{$x}</j> }</m>",
      "<all>{ for $i in " + coll + "//item return <w>{$i/v}</w> }</all>",
  };
  for (const std::string& query : queries) {
    DocumentStore store;
    ExecStats serial_stats;
    std::string serial;
    for (int n : {1, 2, 4}) {
      EngineOptions o;
      o.parallelism = n;
      Engine engine(o);
      Result<PreparedQuery> q = engine.Prepare(query);
      ASSERT_OK(q);
      DynamicContext ctx;
      ctx.set_document_store(&store);
      Result<std::string> r = q.value().ExecuteToString(&ctx);
      ASSERT_OK(r);
      const ExecStats& s = q.value().last_exec_stats();
      if (n == 1) {
        serial = r.value();
        serial_stats = s;
        EXPECT_EQ(InterpToString(query, &ctx), serial) << query;
        continue;
      }
      EXPECT_EQ(r.value(), serial) << query << " at parallelism " << n;
      EXPECT_EQ(s.nodes_copied, serial_stats.nodes_copied)
          << query << " at parallelism " << n;
      EXPECT_EQ(s.nodes_adopted, serial_stats.nodes_adopted)
          << query << " at parallelism " << n;
    }
  }
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace xqc
