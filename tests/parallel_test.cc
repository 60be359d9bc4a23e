// Tests for fn:collection / fn:uri-collection and intra-query parallelism
// (src/runtime/parallel.{h,cc}, src/opt/parallel_infer.{h,cc}):
//
//   - collection resolution and error conformance (FODC0002 / FODC0004,
//     lenient vs strict member-failure policy, injector-driven partially
//     failing directories),
//   - the deterministic ordinal merge: byte-identical results across
//     --parallelism levels AND across cache-eviction-induced reload orders
//     (the ordinal interval-block invariant),
//   - the conservative eligibility pass,
//   - guard-slice behavior of partitioned execution, and
//   - the driving-scan split of flat join / GroupBy plans (XMark, Clio
//     N2-N4): byte-identical output and summed ExecStats equal to the
//     serial run's across join algorithms, batch sizes and exec modes.
//
// The parallelism ∈ {1, 2, 4} sweeps here are the PR's oracle: parallel
// output must be byte-identical to the serial run at every level.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/guard.h"
#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/opt/parallel_infer.h"
#include "src/runtime/context.h"
#include "src/runtime/parallel.h"
#include "src/store/document_store.h"
#include "src/store/io_fault.h"
#include "src/clio/clio.h"
#include "src/xmark/xmark.h"
#include "tests/test_util.h"

namespace xqc {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = ::testing::TempDir() + "xqc_parallel_test_" +
           std::to_string(counter.fetch_add(1));
    std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
  }
  void TearDown() override {
    std::system(("rm -rf " + dir_).c_str());
  }

  std::string WriteDoc(const std::string& name, const std::string& content) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    out << content;
    out.close();
    return path;
  }

  /// A small corpus: member i is <doc><item id="3i"/><item id="3i+1"/>
  /// <item id="3i+2"/></doc>, named so sorted-URI order == creation order.
  void MakeCorpus(int docs, int items_per_doc = 3) {
    for (int d = 0; d < docs; d++) {
      std::string body = "<doc>";
      for (int i = 0; i < items_per_doc; i++) {
        body += "<item id=\"" + std::to_string(d * items_per_doc + i) +
                "\"/>";
      }
      body += "</doc>";
      char name[32];
      std::snprintf(name, sizeof(name), "m%03d.xml", d);
      WriteDoc(name, body);
    }
  }

  static DocumentStoreOptions FastOptions() {
    DocumentStoreOptions o;
    o.retry_backoff_ms = 1;
    return o;
  }

  /// Executes with a private store; returns the serialized result or
  /// "ERROR:<code>".
  std::string Run(const std::string& query, const EngineOptions& options,
                  DocumentStore* store, ExecStats* stats = nullptr) {
    Engine engine(options);
    Result<PreparedQuery> q = engine.Prepare(query);
    if (!q.ok()) return "ERROR:" + q.status().code();
    DynamicContext ctx;
    if (store != nullptr) ctx.set_document_store(store);
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    if (stats != nullptr) *stats = q.value().last_exec_stats();
    if (!r.ok()) return "ERROR:" + r.status().code();
    return r.value();
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// fn:collection / fn:uri-collection resolution
// ---------------------------------------------------------------------------

TEST_F(ParallelTest, UriCollectionListsMembersSorted) {
  WriteDoc("b.xml", "<b/>");
  WriteDoc("a.xml", "<a/>");
  WriteDoc("c.xml", "<c/>");
  WriteDoc("notes.txt", "not xml");  // not matched by the *.xml default
  DocumentStore store(FastOptions());
  std::string out = Run("fn:uri-collection(\"" + dir_ + "\")",
                        EngineOptions{}, &store);
  EXPECT_EQ(out, dir_ + "/a.xml " + dir_ + "/b.xml " + dir_ + "/c.xml");
}

TEST_F(ParallelTest, CollectionSerializesMembersInOrdinalOrder) {
  WriteDoc("b.xml", "<b/>");
  WriteDoc("a.xml", "<a/>");
  WriteDoc("c.xml", "<c/>");
  DocumentStore store(FastOptions());
  ExecStats stats;
  std::string out = Run("fn:collection(\"" + dir_ + "\")", EngineOptions{},
                        &store, &stats);
  EXPECT_EQ(out, "<a/><b/><c/>");
  EXPECT_EQ(stats.doc_store.collections_resolved, 1);
  EXPECT_EQ(stats.doc_store.collection_members, 3);
  EXPECT_EQ(stats.doc_store.collection_members_skipped, 0);
}

TEST_F(ParallelTest, GlobSelectsSubsetOfDirectory) {
  WriteDoc("a1.xml", "<a n=\"1\"/>");
  WriteDoc("a2.xml", "<a n=\"2\"/>");
  WriteDoc("b1.xml", "<b/>");
  DocumentStore store(FastOptions());
  std::string out = Run("fn:collection(\"" + dir_ + "/a*.xml\")",
                        EngineOptions{}, &store);
  EXPECT_EQ(out, "<a n=\"1\"/><a n=\"2\"/>");
}

TEST_F(ParallelTest, MissingCollectionRaisesFODC0002) {
  DocumentStore store(FastOptions());
  EXPECT_EQ(Run("fn:collection(\"" + dir_ + "/missing\")", EngineOptions{},
                &store),
            "ERROR:FODC0002");
  // Zero-argument / empty-string forms: no default collection is defined.
  EXPECT_EQ(Run("fn:collection()", EngineOptions{}, &store),
            "ERROR:FODC0002");
  EXPECT_EQ(Run("fn:collection(\"\")", EngineOptions{}, &store),
            "ERROR:FODC0002");
  EXPECT_EQ(Run("fn:uri-collection(\"" + dir_ + "/missing\")",
                EngineOptions{}, &store),
            "ERROR:FODC0002");
}

TEST_F(ParallelTest, DocumentUriRaisesFODC0004) {
  std::string path = WriteDoc("one.xml", "<r/>");
  DocumentStore store(FastOptions());
  // A regular file is a valid fn:doc target but an *invalid* collection.
  EXPECT_EQ(Run("fn:collection(\"" + path + "\")", EngineOptions{}, &store),
            "ERROR:FODC0004");
}

TEST_F(ParallelTest, FnDocSeesTheSameTreeTheCollectionServes) {
  WriteDoc("a.xml", "<a/>");
  DocumentStore store(FastOptions());
  // Same execution: the collection member and fn:doc of its URI must be
  // the identical node (one parse, one pinned tree).
  std::string out = Run("fn:count(fn:collection(\"" + dir_ +
                            "\") | fn:doc(\"" + dir_ + "/a.xml\"))",
                        EngineOptions{}, &store);
  EXPECT_EQ(out, "1");
}

// ---------------------------------------------------------------------------
// Lenient vs strict member failures (satellite: partially-failing
// directory; one bad member skips, strict mode propagates)
// ---------------------------------------------------------------------------

TEST_F(ParallelTest, LenientModeSkipsMalformedMemberAndQuarantinesIt) {
  WriteDoc("a.xml", "<a/>");
  WriteDoc("bad.xml", "<bad><unclosed></bad>");
  WriteDoc("c.xml", "<c/>");
  DocumentStore store(FastOptions());

  ExecStats stats;
  std::string out = Run("fn:collection(\"" + dir_ + "\")", EngineOptions{},
                        &store, &stats);
  EXPECT_EQ(out, "<a/><c/>");
  EXPECT_EQ(stats.doc_store.collection_members, 2);
  EXPECT_EQ(stats.doc_store.collection_members_skipped, 1);
  // The malformed member is quarantined per the PR 5 rules...
  EXPECT_EQ(store.counters().quarantined, 1);

  // ...so the next scan replays the verdict without re-parsing, and still
  // skips.
  ExecStats stats2;
  std::string out2 = Run("fn:collection(\"" + dir_ + "\")", EngineOptions{},
                         &store, &stats2);
  EXPECT_EQ(out2, "<a/><c/>");
  EXPECT_EQ(stats2.doc_store.quarantine_hits, 1);
  EXPECT_EQ(stats2.doc_store.collection_members_skipped, 1);
}

TEST_F(ParallelTest, StrictModeFailsTheWholeScanOnABadMember) {
  WriteDoc("a.xml", "<a/>");
  WriteDoc("bad.xml", "<bad><unclosed></bad>");
  DocumentStore store(FastOptions());
  EngineOptions strict;
  strict.strict_collections = true;
  std::string out = Run("fn:collection(\"" + dir_ + "\")", strict, &store);
  EXPECT_EQ(out.substr(0, 6), "ERROR:") << out;
  // uri-collection only enumerates: the bad member is still listed.
  std::string uris = Run("fn:uri-collection(\"" + dir_ + "\")", strict,
                         &store);
  EXPECT_EQ(uris, dir_ + "/a.xml " + dir_ + "/bad.xml");
}

TEST_F(ParallelTest, DanglingSymlinkMemberIsExcludedAtEnumeration) {
  WriteDoc("a.xml", "<a/>");
  WriteDoc("c.xml", "<c/>");
  // A dangling symlink fails the stat() filter during enumeration: it is
  // not a member at all (in either mode), rather than a mid-scan failure.
  std::string link = dir_ + "/b.xml";
  ASSERT_EQ(std::system(("ln -s " + dir_ + "/nonexistent " + link).c_str()),
            0);
  DocumentStore store(FastOptions());
  Result<std::vector<std::string>> members = ListCollectionMembers(dir_);
  ASSERT_OK(members);
  EXPECT_EQ(members.value().size(), 2u);
  ExecStats stats;
  EngineOptions strict;
  strict.strict_collections = true;  // even strict mode never sees it
  std::string out = Run("fn:collection(\"" + dir_ + "\")", strict, &store,
                        &stats);
  EXPECT_EQ(out, "<a/><c/>");
  EXPECT_EQ(stats.doc_store.collection_members_skipped, 0);
}

TEST_F(ParallelTest, InjectedOpenFailuresFailEnumerationThenRecover) {
  WriteDoc("a.xml", "<a/>");
  DocumentStore store(FastOptions());
  IoFaultInjector fault;
  fault.mode = IoFaultMode::kFailOpen;
  fault.transient = true;
  fault.fail_n = 1;  // only the first attempt fails
  store.set_fault_injector(&fault);

  EXPECT_EQ(Run("fn:collection(\"" + dir_ + "\")", EngineOptions{}, &store),
            "ERROR:FODC0002");
  EXPECT_EQ(Run("fn:collection(\"" + dir_ + "\")", EngineOptions{}, &store),
            "<a/>");
}

TEST_F(ParallelTest, InjectedShortReadsSkipEveryMemberLeniently) {
  MakeCorpus(3);
  DocumentStore store(FastOptions());
  IoFaultInjector fault;
  fault.mode = IoFaultMode::kShortRead;  // every member parse fails
  store.set_fault_injector(&fault);

  ExecStats stats;
  std::string out = Run("fn:count(fn:collection(\"" + dir_ + "\"))",
                        EngineOptions{}, &store, &stats);
  EXPECT_EQ(out, "0");
  EXPECT_EQ(stats.doc_store.collection_members_skipped, 3);

  EngineOptions strict;
  strict.strict_collections = true;
  DocumentStore store2(FastOptions());
  store2.set_fault_injector(&fault);
  std::string err = Run("fn:collection(\"" + dir_ + "\")", strict, &store2);
  EXPECT_EQ(err.substr(0, 6), "ERROR:") << err;
}

// ---------------------------------------------------------------------------
// Deterministic ordinal merge (satellite: byte-identical across
// cache-eviction-induced reload orders)
// ---------------------------------------------------------------------------

TEST_F(ParallelTest, StaleCachedMemberIsForceReloadedIntoOrdinalOrder) {
  WriteDoc("a.xml", "<a/>");
  WriteDoc("b.xml", "<b/>");
  WriteDoc("c.xml", "<c/>");
  DocumentStore store(FastOptions());

  // Warm ONLY 'c': its interval block now predates everything. The scan
  // then parses 'a' and 'b' fresh (newer blocks), so the cached 'c' tree
  // would sort *before* them in document order — the ordinal-block
  // invariant detects this and force-reloads 'c' into a fresh block.
  EngineOptions eo;
  {
    DynamicContext warm;
    warm.set_document_store(&store);
    ASSERT_OK(
        Engine().Execute("fn:count(fn:doc(\"" + dir_ + "/c.xml\"))", &warm));
  }
  ExecStats stats;
  std::string out =
      Run("fn:collection(\"" + dir_ + "\")", eo, &store, &stats);
  EXPECT_EQ(out, "<a/><b/><c/>");
  EXPECT_GE(stats.doc_store.collection_reorders, 1)
      << "the stale cached member should have been force-reloaded";

  // A second scan starts from an already-ordinal cache: no more reloads.
  ExecStats stats2;
  EXPECT_EQ(Run("fn:collection(\"" + dir_ + "\")", eo, &store, &stats2),
            "<a/><b/><c/>");
  EXPECT_EQ(stats2.doc_store.collection_reorders, 0);
}

TEST_F(ParallelTest, UnionWithDocRespectsCrossDocumentOrder) {
  WriteDoc("a.xml", "<a/>");
  WriteDoc("b.xml", "<b/>");
  WriteDoc("c.xml", "<c/>");
  DocumentStoreOptions opts = FastOptions();
  opts.max_bytes = 600;  // evicting store: reload order is adversarial
  DocumentStore store(opts);
  // Pre-warm in reverse order in a separate execution so the collection
  // scan sees maximally scrambled blocks.
  {
    DynamicContext warm;
    warm.set_document_store(&store);
    ASSERT_OK(Engine().Execute(
        "fn:count((fn:doc(\"" + dir_ + "/c.xml\"), fn:doc(\"" + dir_ +
            "/a.xml\")))",
        &warm));
  }
  DocumentStore fresh(FastOptions());
  EngineOptions eo;
  std::string scrambled =
      Run("fn:collection(\"" + dir_ + "\")", eo, &store);
  std::string clean = Run("fn:collection(\"" + dir_ + "\")", eo, &fresh);
  EXPECT_EQ(scrambled, clean);
}

// ---------------------------------------------------------------------------
// Eligibility analysis
// ---------------------------------------------------------------------------

const ParallelPlanInfo& Analyze(const std::string& query,
                                PreparedQuery* out) {
  Result<PreparedQuery> q = Engine().Prepare(query);
  EXPECT_OK(q);
  *out = q.take();
  return out->compiled().parallel;
}

TEST_F(ParallelTest, EligibilityAcceptsCollectionScans) {
  PreparedQuery q;
  {
    const ParallelPlanInfo& p =
        Analyze("fn:collection(\"d\")//item", &q);
    EXPECT_TRUE(p.eligible) << p.reason;
    EXPECT_NE(p.source, nullptr);
    EXPECT_TRUE(p.by_document);
  }
  {
    const ParallelPlanInfo& p = Analyze(
        "for $i in fn:collection(\"d\")//item return string($i/@id)", &q);
    EXPECT_TRUE(p.eligible) << p.reason;
  }
  {
    const ParallelPlanInfo& p = Analyze(
        "for $i in fn:collection(\"d\")//item where $i/@id > \"3\" "
        "return $i",
        &q);
    EXPECT_TRUE(p.eligible) << p.reason;
  }
  {
    // Any TreeJoin chain is cut by document, under a constructor too.
    const ParallelPlanInfo& p =
        Analyze("<r>{fn:collection(\"d\")//open_auction/bidder}</r>", &q);
    EXPECT_TRUE(p.eligible) << p.reason;
    EXPECT_TRUE(p.by_document);
  }
}

TEST_F(ParallelTest, EligibilityRejectsOrderSensitiveShapes) {
  PreparedQuery q;
  {
    // Aggregate over the scan: the root is a Call, not the spine.
    const ParallelPlanInfo& p =
        Analyze("fn:count(fn:collection(\"d\")//item)", &q);
    EXPECT_FALSE(p.eligible);
    EXPECT_FALSE(p.reason.empty());
  }
  {
    // Positional at-clause compiles to MapIndex on the spine.
    const ParallelPlanInfo& p = Analyze(
        "for $i at $n in fn:collection(\"d\")//item return $n", &q);
    EXPECT_FALSE(p.eligible);
  }
  {
    // No scan at all.
    const ParallelPlanInfo& p = Analyze("1 + 2", &q);
    EXPECT_FALSE(p.eligible);
  }
  {
    // order by is not a pointwise spine.
    const ParallelPlanInfo& p = Analyze(
        "for $i in fn:collection(\"d\")//item order by string($i/@id) "
        "return $i",
        &q);
    EXPECT_FALSE(p.eligible);
  }
}

// ---------------------------------------------------------------------------
// Parallel execution: byte parity with the serial oracle
// ---------------------------------------------------------------------------

/// The ExecStats a document cut reproduces exactly: everything the plan
/// does (guard steps and memory, scans, joins, GroupBys, constructors, path
/// steps), but not how it was scheduled.
std::string DocumentCutStats(const ExecStats& s) {
  return "guard_steps=" + std::to_string(s.guard_steps) +
         " peak_memory=" + std::to_string(s.peak_memory_bytes) +
         " source_tuples=" + std::to_string(s.source_tuples) +
         " hash=" + std::to_string(s.hash_joins) +
         " sort=" + std::to_string(s.sort_joins) +
         " range=" + std::to_string(s.range_joins) +
         " nl=" + std::to_string(s.nested_loop_joins) +
         " composite=" + std::to_string(s.composite_joins) +
         " specialized=" + std::to_string(s.specialized_joins) +
         " reuses=" + std::to_string(s.join_index_reuses) +
         " group_bys=" + std::to_string(s.group_bys) +
         " copied=" + std::to_string(s.nodes_copied) +
         " adopted=" + std::to_string(s.nodes_adopted) +
         " early_stops=" + std::to_string(s.streaming_early_stops) +
         " index_lookups=" + std::to_string(s.tree_join.index_lookups);
}

/// A row cut also reproduces how the path steps discharged DDO. A document
/// cut runs each path step once per unit, on that unit's documents, so
/// there the step sorts or skips per unit rather than once over all
/// members.
std::string WorkStats(const ExecStats& s) {
  return DocumentCutStats(s) +
         " ddo_sorts=" + std::to_string(s.tree_join.ddo_sorts) +
         " skip_static=" + std::to_string(s.tree_join.ddo_skip_static) +
         " skip_singleton=" + std::to_string(s.tree_join.ddo_skip_singleton);
}

TEST_F(ParallelTest, SweepMultiDocCorpusAcrossParallelismLevels) {
  MakeCorpus(6, 4);
  const std::string coll = "fn:collection(\"" + dir_ + "\")";
  const struct {
    std::string query;
    bool splits;  // cut by document; otherwise statically ineligible
  } cases[] = {
      {coll + "//item", true},
      {"<r>{" + coll + "//item}</r>", true},
      // The parent step needs a DDO sort in every unit.
      {coll + "//item/..", true},
      {"for $i in " + coll + "//item return string($i/@id)", true},
      {"for $i in " + coll + "//item where number($i/@id) mod 2 = 0 "
           "return $i",
       true},
      // The nested block unnests into an outer join and a GroupBy keyed
      // on the driving scan.
      {"for $i in " + coll + "//item return <r>{ for $k in (0 to 30) "
           "where $k = number($i/@id) return <k>{$k}</k> }</r>",
       true},
      {"fn:count(" + coll + "//item)", false},
  };
  for (const auto& [query, splits] : cases) {
    DocumentStore store(FastOptions());
    // The first run parses the members and builds their structural
    // indexes, charged to its guard: warm the store first.
    Run(query, EngineOptions{}, &store);
    ExecStats sstats;
    std::string oracle = Run(query, EngineOptions{}, &store, &sstats);
    ASSERT_NE(oracle.substr(0, 6), "ERROR:") << query << ": " << oracle;
    EXPECT_EQ(sstats.parallel_partitions, 0);
    for (int n : {2, 4}) {
      EngineOptions par;
      par.parallelism = n;
      ExecStats pstats;
      std::string got = Run(query, par, &store, &pstats);
      EXPECT_EQ(got, oracle) << query << " at parallelism " << n;
      EXPECT_EQ(DocumentCutStats(pstats), DocumentCutStats(sstats))
          << query << " at parallelism " << n;
      EXPECT_EQ(pstats.parallel_partitions > 0, splits)
          << query << " at parallelism " << n;
      EXPECT_EQ(pstats.parallel_fallbacks, splits ? 0 : 1)
          << query << " at parallelism " << n;
    }
  }
}

TEST_F(ParallelTest, OneDocumentCollectionRunsSerially) {
  // A document is the smallest unit of a collection cut: one large member
  // gives one unit, so the driver finishes serially.
  std::string body = "<doc>";
  for (int i = 0; i < 300; i++) {
    body += "<item id=\"" + std::to_string(i) + "\"><v>" +
            std::to_string(i * 7 % 13) + "</v></item>";
  }
  body += "</doc>";
  WriteDoc("big.xml", body);

  const std::string query = "for $i in fn:collection(\"" + dir_ +
                            "\")//item return string($i/v)";
  DocumentStore store(FastOptions());
  Run(query, EngineOptions{}, &store);
  ExecStats sstats;
  std::string oracle = Run(query, EngineOptions{}, &store, &sstats);
  EngineOptions par;
  par.parallelism = 4;
  ExecStats stats;
  std::string got = Run(query, par, &store, &stats);
  EXPECT_EQ(got, oracle);
  EXPECT_EQ(WorkStats(stats), WorkStats(sstats));
  EXPECT_EQ(stats.parallel_partitions, 0);
  EXPECT_EQ(stats.parallel_fallbacks, 1);
}

TEST_F(ParallelTest, ParallelMatchesSerialOnXMarkStyleCorpus) {
  // Four structurally rich documents (different seeds), queried with a
  // descendant scan + predicate.
  for (int d = 0; d < 4; d++) {
    XMarkOptions xo;
    xo.seed = 100 + static_cast<uint64_t>(d);
    xo.target_bytes = 20 * 1024;
    char name[32];
    std::snprintf(name, sizeof(name), "x%02d.xml", d);
    WriteDoc(name, GenerateXMarkXml(xo));
  }
  const std::string query =
      "for $p in fn:collection(\"" + dir_ + "\")//person " +
      "return string($p/name)";
  DocumentStore store(FastOptions());
  std::string oracle = Run(query, EngineOptions{}, &store);
  ASSERT_NE(oracle.substr(0, 6), "ERROR:") << oracle;
  for (int n : {2, 4}) {
    EngineOptions par;
    par.parallelism = n;
    ExecStats stats;
    EXPECT_EQ(Run(query, par, &store, &stats), oracle)
        << "parallelism " << n;
  }
}

TEST_F(ParallelTest, ParallelismSurvivesEvictionReloadOrders) {
  MakeCorpus(4, 3);
  DocumentStoreOptions small = FastOptions();
  small.max_bytes = 900;  // evicts continuously
  DocumentStore store(small);
  const std::string query = "fn:collection(\"" + dir_ + "\")//item";
  DocumentStore pristine(FastOptions());
  std::string oracle = Run(query, EngineOptions{}, &pristine);
  for (int round = 0; round < 3; round++) {
    for (int n : {1, 2, 4}) {
      EngineOptions eo;
      eo.parallelism = n;
      EXPECT_EQ(Run(query, eo, &store), oracle)
          << "round " << round << " parallelism " << n;
    }
  }
}

TEST_F(ParallelTest, ParallelErrorsMatchSerialErrors) {
  // The first member is fine, the second errors under strict mode: both
  // serial and parallel runs must surface the member failure.
  WriteDoc("a.xml", "<doc><item id=\"1\"/></doc>");
  WriteDoc("bad.xml", "<doc><item</doc>");
  EngineOptions strict_serial;
  strict_serial.strict_collections = true;
  EngineOptions strict_par = strict_serial;
  strict_par.parallelism = 4;
  const std::string query = "fn:collection(\"" + dir_ + "\")//item";
  DocumentStore s1(FastOptions()), s2(FastOptions());
  std::string serial = Run(query, strict_serial, &s1);
  std::string parallel = Run(query, strict_par, &s2);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.substr(0, 6), "ERROR:") << serial;
}

// ---------------------------------------------------------------------------
// Driving-scan split: flat join / GroupBy plans cut by row ranges
// ---------------------------------------------------------------------------

class DrivingScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small enough for nested-loop joins, large enough that the driving
    // scans (persons, authorinfo) yield several kMinRowsPerUnit units.
    XMarkOptions xo;
    xo.target_bytes = 100 * 1024;
    auction_ = new NodePtr(GenerateXMarkDocument(xo).take());
    ClioOptions co;
    co.target_bytes = 100 * 1024;
    dblp_ = new NodePtr(GenerateDblpDocument(co).take());
    // The first query that scans a document builds its structural index
    // and charges it to that query's guard: build both up front, so that
    // every run of a query counts the same work.
    Run("declare variable $auction external; count($auction//*)", {});
    Run("declare variable $dblp external; count($dblp//*)", {});
  }
  static void TearDownTestSuite() {
    delete auction_;
    delete dblp_;
  }

  struct Outcome {
    std::string out;
    ExecStats stats;
  };
  static Outcome Run(const std::string& query, const EngineOptions& opts) {
    Result<PreparedQuery> q = Engine().Prepare(query, opts);
    EXPECT_OK(q);
    if (!q.ok()) return {};
    DynamicContext ctx;
    ctx.BindVariable(Symbol("auction"), {Item(*auction_)});
    ctx.BindVariable(Symbol("dblp"), {Item(*dblp_)});
    Result<std::string> r = q.value().ExecuteToString(&ctx);
    return {r.ok() ? r.value() : "ERROR:" + r.status().code(),
            q.value().last_exec_stats()};
  }

  static NodePtr* auction_;
  static NodePtr* dblp_;
};

NodePtr* DrivingScanTest::auction_ = nullptr;
NodePtr* DrivingScanTest::dblp_ = nullptr;

TEST_F(DrivingScanTest, EligibilityAcceptsThePaperJoinPlans) {
  for (int level = 2; level <= 4; level++) {
    PreparedQuery q;
    const ParallelPlanInfo& p = Analyze(ClioQuery(level), &q);
    EXPECT_TRUE(p.eligible) << "N" << level << ": " << p.reason;
    EXPECT_NE(p.split, nullptr) << "N" << level;
    EXPECT_FALSE(p.builds.empty()) << "N" << level;
  }
  for (int number : {8, 9, 11, 12}) {
    PreparedQuery q;
    const ParallelPlanInfo& p = Analyze(XMarkQuery(number), &q);
    EXPECT_TRUE(p.eligible) << "Q" << number << ": " << p.reason;
    EXPECT_NE(p.split, nullptr) << "Q" << number;
  }
}

TEST_F(DrivingScanTest, JoinPlansMatchSerialAcrossConfigurations) {
  // The paper shapes with a driving-scan chain: Clio N2-N4 and XMark Q8,
  // Q9, Q11, Q12. Those with kMinJoinsPerSplit joins must split; the rest
  // take the serial path with the same bytes and counters.
  std::vector<std::pair<std::string, std::string>> queries;
  for (int level = 2; level <= 4; level++) {
    queries.emplace_back("N" + std::to_string(level), ClioQuery(level));
  }
  for (int number : {8, 9, 11, 12}) {
    queries.emplace_back("Q" + std::to_string(number), XMarkQuery(number));
  }
  const JoinImpl kJoins[] = {JoinImpl::kNestedLoop, JoinImpl::kHash,
                             JoinImpl::kSort};
  for (const auto& [name, query] : queries) {
    PreparedQuery prepared;
    const bool splits =
        Analyze(query, &prepared).builds.size() >= kMinJoinsPerSplit;
    int64_t partitions = 0;
    for (JoinImpl join : kJoins) {
      for (int config = 0; config < 3; config++) {
        EngineOptions serial;
        serial.join_impl = join;
        if (config == 2) {
          serial.exec_mode = ExecMode::kMaterialize;
        } else {
          serial.batch_size = config == 0 ? 1 : 1024;
        }
        Outcome oracle = Run(query, serial);
        ASSERT_EQ(oracle.out.rfind("ERROR:", 0), std::string::npos)
            << name << ": " << oracle.out;
        for (int n : {2, 4}) {
          EngineOptions par = serial;
          par.parallelism = n;
          Outcome got = Run(query, par);
          std::string where = name + " join " +
                              std::to_string(static_cast<int>(join)) +
                              " config " + std::to_string(config) +
                              " parallelism " + std::to_string(n);
          ASSERT_EQ(got.out, oracle.out) << where;
          EXPECT_EQ(WorkStats(got.stats), WorkStats(oracle.stats)) << where;
          partitions += got.stats.parallel_partitions;
        }
      }
    }
    if (splits) {
      EXPECT_GT(partitions, 0) << name << " never split";
    } else {
      EXPECT_EQ(partitions, 0) << name << " split with too few joins";
    }
  }
}

TEST_F(DrivingScanTest, UnitZeroFinishingLastGivesTheSameBytes) {
  // Hold the first unit back until every other unit has finished: the
  // recombination order, not the completion order, decides the output.
  const std::string query = ClioQuery(4);
  Outcome oracle = Run(query, EngineOptions{});
  std::atomic<int> finished_others{0};
  SetUnitHookForTest([&](size_t unit) {
    if (unit == 0) {
      for (int i = 0; i < 2000 && finished_others.load() == 0; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else {
      finished_others++;
    }
  });
  EngineOptions par;
  par.parallelism = 4;
  Outcome got = Run(query, par);
  SetUnitHookForTest(nullptr);
  EXPECT_EQ(got.out, oracle.out);
  EXPECT_EQ(WorkStats(got.stats), WorkStats(oracle.stats));
  EXPECT_GT(got.stats.parallel_partitions, 1);
}

TEST_F(DrivingScanTest, SmallChainsFinishSerially) {
  const std::string cases[] = {
      // Three driving rows: below two units' worth of rows.
      "<out>{ for $x in (1, 2, 3) return <r>{ for $y in (2, 3, 4), "
      "$z in (3, 4) where $y = $x and $z = $y return $z }</r> }</out>",
      // Many rows, but a pointwise chain without joins...
      "declare variable $auction external; for $p in "
      "$auction/site/people/person return <r>{$p/name}</r>",
      // ...or with a single join (Clio N2).
      ClioQuery(2),
  };
  for (const std::string& query : cases) {
    PreparedQuery q;
    EXPECT_TRUE(Analyze(query, &q).eligible) << query;
    Outcome oracle = Run(query, EngineOptions{});
    EngineOptions par;
    par.parallelism = 4;
    Outcome got = Run(query, par);
    EXPECT_EQ(got.out, oracle.out) << query;
    EXPECT_EQ(WorkStats(got.stats), WorkStats(oracle.stats)) << query;
    EXPECT_EQ(got.stats.parallel_partitions, 0) << query;
    EXPECT_EQ(got.stats.parallel_fallbacks, 1) << query;
  }
}

TEST_F(DrivingScanTest, OrderSensitiveShapesStaySerial) {
  const std::string persons = "$auction/site/people/person";
  const std::string prolog = "declare variable $auction external; ";
  const std::string cases[] = {
      // A user at-clause the output reads.
      "for $p at $i in " + persons + " return <r n=\"{$i}\">{$p/name}</r>",
      // A positional predicate and fn:last() over the driving stream.
      "for $p at $i in " + persons + " where $i mod 3 = 0 return $p/name",
      "(for $p in " + persons + " return <r>{$p/name}</r>)[last()]",
      // Document order read above the split.
      "(for $p in " + persons + " return <x/>)/self::x",
      "(for $p in " + persons + " return <x/>)[1] is (for $p in " + persons +
          " return <x/>)[2]",
      "(for $p in " + persons + " return <x/>)[1] << (for $p in " + persons +
          " return <x/>)[2]",
  };
  for (const std::string& body : cases) {
    const std::string query = prolog + body;
    PreparedQuery q;
    const ParallelPlanInfo& p = Analyze(query, &q);
    EXPECT_FALSE(p.eligible) << query;
    Outcome oracle = Run(query, EngineOptions{});
    EngineOptions par;
    par.parallelism = 4;
    Outcome got = Run(query, par);
    EXPECT_EQ(got.out, oracle.out) << query;
    EXPECT_EQ(got.stats.parallel_partitions, 0) << query;
    EXPECT_EQ(got.stats.parallel_fallbacks, 1) << query;
  }
}

TEST_F(DrivingScanTest, HandBuiltUnsafePlansStaySerial) {
  // Plans the compiler and optimizer never produce, which the pass must
  // still refuse. The chain is
  //   MapIndex[inner](MapIndex[d](MapFromItem{[x:IN]}(Scalar))).
  Symbol x("x"), d("d"), inner("inner"), agg("agg");
  OpPtr scan = OpMapFromItem(OpTupleConstruct({x}, {OpIn()}),
                             OpScalar(AtomicValue::Integer(1)));
  OpPtr chain = OpMapIndex(inner, OpMapIndex(d, scan));
  auto analyze = [](OpPtr plan) {
    CompiledQuery query;
    query.plan = std::move(plan);
    AnalyzeParallel(&query);
    // Statically ineligible plans are never partitioned: the executor
    // declines them and the engine runs (and counts) the serial path.
    if (!query.parallel.eligible) {
      DynamicContext ctx;
      ExecStats stats;
      Result<Sequence> r{Sequence{}};
      EXPECT_FALSE(TryExecuteParallel(
          query, &ctx,
          {.exec_mode = ExecMode::kMaterialize, .parallelism = 4}, &stats,
          &r));
    }
    return query.parallel;
  };
  // A GroupBy keyed by an index other than the driving one: a group could
  // straddle two row ranges.
  ParallelPlanInfo p = analyze(OpMapToItem(
      OpInField(agg), OpGroupBy(agg, {inner}, {}, OpIn(), OpIn(), chain)));
  EXPECT_FALSE(p.eligible);
  EXPECT_NE(p.reason.find("GroupBy"), std::string::npos) << p.reason;
  // Keyed by the driving index first, the same chain is accepted.
  p = analyze(OpMapToItem(
      OpInField(agg), OpGroupBy(agg, {d, inner}, {}, OpIn(), OpIn(), chain)));
  EXPECT_TRUE(p.eligible) << p.reason;
  // fn:put (the algebra's Serialize) beside the split: side-effect order.
  OpPtr put = MakeOp(OpKind::kSerialize);
  put->inputs = {OpScalar(AtomicValue::String(::testing::TempDir() +
                                              "xqc_parallel_put.xml")),
                 OpScalar(AtomicValue::Integer(1))};
  OpPtr seq = MakeOp(OpKind::kSequence);
  seq->inputs = {put, OpMapToItem(OpInField(x), scan)};
  p = analyze(seq);
  EXPECT_FALSE(p.eligible);
  EXPECT_NE(p.reason.find("fn:put"), std::string::npos) << p.reason;
}

// ---------------------------------------------------------------------------
// TaskPool basics
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, RunsSubmittedTasksAndRejectsWhenSaturated) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  // Occupy both helpers. TrySubmit refuses until a helper thread has
  // reached its idle wait, so spin briefly right after construction.
  std::atomic<int> blocked{0};
  for (int i = 0; i < 2; i++) {
    bool submitted = false;
    for (int spin = 0; spin < 100000 && !submitted; spin++) {
      submitted = pool.TrySubmit([&] {
        blocked++;
        while (!release.load()) std::this_thread::yield();
        ran++;
      });
      if (!submitted) std::this_thread::yield();
    }
    ASSERT_TRUE(submitted) << "helper " << i << " never became idle";
  }
  while (blocked.load() < 2) std::this_thread::yield();
  // Saturated: further submissions must be refused, not queued.
  EXPECT_FALSE(pool.TrySubmit([&] { ran += 100; }));
  release = true;
  // Helpers come back; a new task is accepted again.
  bool accepted = false;
  for (int spin = 0; spin < 10000 && !accepted; spin++) {
    accepted = pool.TrySubmit([&] { ran++; });
    if (!accepted) std::this_thread::yield();
  }
  EXPECT_TRUE(accepted);
  // Wait for the last task.
  for (int spin = 0; spin < 100000 && ran.load() < 3; spin++) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace xqc
