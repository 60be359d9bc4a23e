// xqc_shell: a small command-line front end to the engine.
//
//   $ xqc_shell [options] -q 'for $x in (1,2,3) return $x * 2'
//   $ xqc_shell --query-file q.xq --doc auction=auction.xml --explain
//
// Options:
//   -q <text>            query text
//   --query-file <path>  read the query from a file
//   --doc <var>=<path>   parse an XML file and bind its root to $<var>
//                        (also registered under the path for fn:doc)
//   --explain            print the optimized plan instead of executing
//   --explain-naive      print the unoptimized plan
//   --no-optimize        disable the Figure 5 rewritings
//   --interpret          use the baseline Core interpreter
//   --join nl|hash|sort  physical join algorithm (default hash)
//   --exec stream|mat    early termination on / off (default stream)
//   --batch-size <n>     tuples per iterator pull (default 1024;
//                        1 = demand-bound oracle)
//   --parallelism <n>    partition eligible plans (fn:collection scans,
//                        flat join / GroupBy plans by their driving scan)
//                        across up to n concurrent workers (default 1 =
//                        the serial, byte-identical oracle)
//   --strict-collections fail the whole fn:collection scan on any bad
//                        member document (default: skip quarantined /
//                        malformed / vanished members)
//   --project            statically project bound documents (TreeProject)
//   --force-sort         always sort TreeJoin output (DDO-elision baseline)
//   --no-doc-index       disable per-document structural indexes
//   --no-doc-store       bypass the shared document store (fn:doc parses
//                        directly from disk each execution)
//   --doc-store-mb <n>   document store byte budget in MiB (default 256)
//   --invalidate <uri>   drop <uri> from the document store before running
//                        (cache entry, quarantine verdict, negative cache)
//   --stats              print optimizer/executor statistics and the
//                        execute / serialize wall times
//   --timeout-ms <n>         abort with XQC0001 after n milliseconds
//   --max-mem-mb <n>         memory budget in MiB (XQC0003 when exceeded)
//   --max-output-items <n>   cap on result items (XQC0004 when exceeded)
//   --max-steps <n>          eval-step quota (XQC0006 when exceeded)
//   --threads <n>        serve the query through a QueryService with n
//                        worker threads (shared plan, per-worker contexts)
//   --repeat <n>         with --threads: total executions (default: threads)
//   --tenant <name>      with --threads: submit under this tenant name
//   --tenant-quota <n>   with --threads: per-tenant in-flight cap; over-quota
//                        submissions fail fast with XQC0010 (counted, not
//                        fatal)
//   --breaker-threshold <n>  open the document store's per-prefix circuit
//                        breaker after n consecutive transient I/O failures
//                        (fn:doc then fails fast with XQC0011)
//   --brownout           while a breaker is open, serve the stale cached
//                        document instead of failing (flagged in stats);
//                        with --snapshot-dir this extends to serving a
//                        valid disk snapshot when nothing is in memory
//   --snapshot-dir <dir> enable the document store's persistent snapshot
//                        tier: first parses publish checksummed binary
//                        tree snapshots in <dir>; later cold loads rebuild
//                        from them instead of re-parsing
//   --no-snapshots       oracle ablation: loads bypass the snapshot tier
//                        (results must be byte-identical)
//
// Environment (test harness hooks; see scripts/check.sh):
//   XQC_IO_FAULT_MODE / XQC_SNAP_FAULT_MODE  install a deterministic I/O
//                        fault injector on the global document store
//                        (mode names per src/store/io_fault.h)
//   XQC_IO_FAULT_DELAY_MS  delay for the slow-read / snap-slow-write modes
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>

#include "src/engine/engine.h"
#include "src/service/query_service.h"
#include "src/store/document_store.h"
#include "src/xml/project.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"

namespace {

int Fail(const std::string& msg) {
  std::cerr << "xqc_shell: " << msg << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query;
  bool explain = false, explain_naive = false, stats = false, project = false;
  int threads = 0, repeat = 0;
  long long tenant_quota = 0;
  std::string tenant;
  std::vector<std::string> invalidate_uris;
  std::vector<std::pair<xqc::Symbol, xqc::NodePtr>> docs;
  std::vector<std::pair<std::string, xqc::NodePtr>> doc_paths;
  xqc::EngineOptions options;
  xqc::DynamicContext ctx;

  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "-q") {
      const char* v = next();
      if (v == nullptr) return Fail("-q needs an argument");
      query = v;
    } else if (arg == "--query-file") {
      const char* v = next();
      if (v == nullptr) return Fail("--query-file needs an argument");
      std::ifstream in(v);
      if (!in) return Fail(std::string("cannot open ") + v);
      std::ostringstream buf;
      buf << in.rdbuf();
      query = buf.str();
    } else if (arg == "--doc") {
      const char* v = next();
      if (v == nullptr) return Fail("--doc needs var=path");
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return Fail("--doc needs var=path");
      std::string var = spec.substr(0, eq), path = spec.substr(eq + 1);
      xqc::Result<xqc::NodePtr> doc = xqc::ParseXmlFile(path);
      if (!doc.ok()) return Fail(doc.status().ToString());
      ctx.RegisterDocument(path, doc.value());
      ctx.BindVariable(xqc::Symbol(var), {xqc::Item(doc.value())});
      docs.emplace_back(xqc::Symbol(var), doc.value());
      doc_paths.emplace_back(path, doc.value());
    } else if (arg == "--project") {
      project = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-naive") {
      explain_naive = true;
    } else if (arg == "--no-optimize") {
      options.optimize = false;
    } else if (arg == "--interpret") {
      options.use_algebra = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--force-sort") {
      options.force_sort = true;
    } else if (arg == "--no-doc-index") {
      options.use_doc_index = false;
    } else if (arg == "--no-doc-store") {
      options.use_doc_store = false;
    } else if (arg == "--strict-collections") {
      options.strict_collections = true;
    } else if (arg == "--invalidate") {
      const char* v = next();
      if (v == nullptr) return Fail("--invalidate needs a URI");
      invalidate_uris.emplace_back(v);
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return Fail("--tenant needs a name");
      tenant = v;
    } else if (arg == "--brownout") {
      xqc::DocumentStore::Global()->set_brownout(true);
    } else if (arg == "--snapshot-dir") {
      const char* v = next();
      if (v == nullptr) return Fail("--snapshot-dir needs a directory");
      xqc::DocumentStore::Global()->set_snapshot_dir(v);
    } else if (arg == "--no-snapshots") {
      options.use_snapshots = false;
    } else if (arg == "--join") {
      const char* v = next();
      if (v == nullptr) return Fail("--join needs nl|hash|sort");
      std::string j = v;
      if (j == "nl") options.join_impl = xqc::JoinImpl::kNestedLoop;
      else if (j == "hash") options.join_impl = xqc::JoinImpl::kHash;
      else if (j == "sort") options.join_impl = xqc::JoinImpl::kSort;
      else return Fail("unknown join algorithm: " + j);
    } else if (arg == "--exec") {
      const char* v = next();
      if (v == nullptr) return Fail("--exec needs stream|mat");
      std::string e = v;
      if (e == "stream") options.exec_mode = xqc::ExecMode::kStreaming;
      else if (e == "mat") options.exec_mode = xqc::ExecMode::kMaterialize;
      else return Fail("unknown exec mode: " + e);
    } else if (arg == "--threads" || arg == "--repeat" ||
               arg == "--timeout-ms" || arg == "--max-mem-mb" ||
               arg == "--max-output-items" || arg == "--max-steps" ||
               arg == "--doc-store-mb" || arg == "--batch-size" ||
               arg == "--tenant-quota" || arg == "--breaker-threshold" ||
               arg == "--parallelism") {
      const char* v = next();
      if (v == nullptr) return Fail(arg + " needs a number");
      char* end = nullptr;
      long long n = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0) {
        return Fail(arg + " needs a positive number, got: " + v);
      }
      if (arg == "--timeout-ms") options.limits.deadline_ms = n;
      else if (arg == "--max-mem-mb")
        options.limits.max_memory_bytes = n * (1 << 20);
      else if (arg == "--max-output-items") options.limits.max_output_items = n;
      else if (arg == "--max-steps") options.limits.max_eval_steps = n;
      else if (arg == "--doc-store-mb")
        xqc::DocumentStore::Global()->set_max_bytes(n * (1 << 20));
      else if (arg == "--batch-size") options.batch_size = static_cast<int>(n);
      else if (arg == "--parallelism")
        options.parallelism = static_cast<int>(n);
      else if (arg == "--threads") threads = static_cast<int>(n);
      else if (arg == "--tenant-quota") tenant_quota = n;
      else if (arg == "--breaker-threshold")
        xqc::DocumentStore::Global()->set_breaker_threshold(
            static_cast<int>(n));
      else repeat = static_cast<int>(n);
    } else {
      return Fail("unknown option: " + arg);
    }
  }
  if (query.empty()) {
    return Fail("no query (use -q or --query-file); try:\n"
                "  xqc_shell -q 'for $x in (1,2,3) return $x * 2'");
  }
  // Deterministic fault injection keyed by the environment, so the fault
  // sweeps and the kill-9 crash harness in scripts/ can drive the injector
  // without per-mode shell flags. Static: the global store outlives main's
  // locals.
  static xqc::IoFaultInjector env_injector;
  const char* fault_mode = std::getenv("XQC_IO_FAULT_MODE");
  if (fault_mode == nullptr || *fault_mode == '\0') {
    fault_mode = std::getenv("XQC_SNAP_FAULT_MODE");
  }
  if (fault_mode != nullptr && *fault_mode != '\0') {
    if (!xqc::IoFaultModeFromName(fault_mode, &env_injector.mode)) {
      return Fail(std::string("unknown I/O fault mode in environment: ") +
                  fault_mode);
    }
    if (const char* d = std::getenv("XQC_IO_FAULT_DELAY_MS")) {
      env_injector.delay_ms = std::strtoll(d, nullptr, 10);
    }
    if (env_injector.mode != xqc::IoFaultMode::kNone) {
      xqc::DocumentStore::Global()->set_fault_injector(&env_injector);
    }
  }

  for (const std::string& uri : invalidate_uris) {
    bool dropped = xqc::DocumentStore::Global()->Invalidate(uri);
    if (stats) {
      std::cerr << "invalidate " << uri << ": "
                << (dropped ? "dropped" : "not cached") << "\n";
    }
  }

  xqc::Engine engine;
  xqc::Result<xqc::PreparedQuery> prepared = engine.Prepare(query, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  if (project) {
    xqc::ProjectionAnalysis a = prepared.value().InferProjection();
    if (!a.projectable) {
      std::cerr << "xqc_shell: query is not projectable; using full "
                   "documents\n";
    } else {
      for (auto& [var, doc] : docs) {
        auto it = a.paths_by_var.find(var);
        if (it == a.paths_by_var.end()) continue;
        xqc::Result<xqc::NodePtr> p = xqc::ProjectTree(doc, it->second);
        if (!p.ok()) return Fail(p.status().ToString());
        ctx.BindVariable(var, {xqc::Item(p.take())});
        if (stats) {
          std::cerr << "projected $" << var.str() << " to "
                    << it->second.size() << " paths\n";
        }
      }
    }
  }
  if (explain_naive) {
    std::cout << prepared.value().ExplainUnoptimizedPlan() << "\n";
    return 0;
  }
  if (explain) {
    std::cout << prepared.value().ExplainPlan() << "\n";
    return 0;
  }
  if (threads > 0) {
    // Serve the query through the concurrent layer: one shared immutable
    // plan, N workers with private contexts, `repeat` total executions.
    // Every run must produce the same result — printed once.
    if (repeat < threads) repeat = threads;
    xqc::ServiceOptions sopts;
    sopts.num_threads = threads;
    sopts.engine_options = options;
    sopts.default_limits = options.limits;
    if (tenant_quota > 0) sopts.tenant_max_in_flight = tenant_quota;
    xqc::QueryService service(sopts);
    for (auto& [path, doc] : doc_paths) service.RegisterDocument(path, doc);
    for (auto& [var, doc] : docs) {
      service.BindSharedVariable(var, {xqc::Item(doc)});
    }
    auto plan = std::make_shared<const xqc::PreparedQuery>(prepared.take());
    std::vector<std::future<xqc::QueryResponse>> futures;
    futures.reserve(repeat);
    for (int i = 0; i < repeat; i++) {
      xqc::QueryRequest req;
      req.prepared = plan;
      req.tenant = tenant;
      futures.push_back(service.Submit(std::move(req)));
    }
    std::string first;
    bool have_first = false;
    int64_t retries = 0, over_quota = 0, overloaded = 0;
    for (int i = 0; i < repeat; i++) {
      xqc::QueryResponse resp = futures[i].get();
      if (resp.status.code() == xqc::kTenantOverQuotaCode) {
        // Quota rejections are the feature working, not a failure: count
        // them and keep going with whatever was admitted.
        over_quota++;
        continue;
      }
      if (resp.status.code() == xqc::kServiceOverloadedCode) {
        overloaded++;
        continue;
      }
      if (!resp.status.ok()) return Fail(resp.status.ToString());
      if (!have_first) {
        first = resp.result;
        have_first = true;
      } else if (resp.result != first) {
        return Fail("run " + std::to_string(i) +
                    " disagrees with run 0:\n  " + resp.result + "\nvs\n  " +
                    first);
      }
      if (resp.retried_transient) retries++;
    }
    if (!have_first) {
      return Fail("every submission was rejected (" +
                  std::to_string(over_quota) + " over quota, " +
                  std::to_string(overloaded) + " overloaded)");
    }
    std::cout << first << "\n";
    if (stats) {
      xqc::QueryService::Counters sc = service.counters();
      std::cerr << "service: threads=" << threads << " runs=" << repeat
                << " agreed=yes retries=" << retries
                << " over-quota=" << over_quota
                << " overloaded=" << overloaded << "\n"
                << "service-counters: submitted=" << sc.submitted
                << " completed=" << sc.completed << " failed=" << sc.failed
                << " rejected=" << sc.rejected
                << " shed-in-queue=" << sc.shed_in_queue
                << " rejected-predicted=" << sc.rejected_predicted
                << " tenant-rejected=" << sc.tenant_rejected << "\n";
      for (const auto& [name, n] : sc.tenant_rejections) {
        std::cerr << "tenant-rejections: " << (name.empty() ? "<anon>" : name)
                  << "=" << n << "\n";
      }
    }
    return 0;
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  xqc::Result<xqc::Sequence> items = prepared.value().Execute(&ctx);
  const Clock::time_point t1 = Clock::now();
  if (!items.ok()) return Fail(items.status().ToString());
  const std::string result = xqc::SerializeSequence(items.value());
  const Clock::time_point t2 = Clock::now();
  std::cout << result << "\n";
  if (stats) {
    auto ms = [](Clock::duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    std::cerr << "time: execute-ms=" << ms(t1 - t0)
              << " serialize-ms=" << ms(t2 - t1) << "\n";
    const xqc::OptimizerStats& os = prepared.value().optimizer_stats();
    const xqc::ExecStats& es = prepared.value().last_exec_stats();
    std::cerr << "optimizer: group-bys=" << os.insert_group_by
              << " outer-joins=" << os.insert_outer_join
              << " joins=" << os.insert_join
              << " lifted-products=" << os.lift_product
              << " outer-maps-through-group-by="
              << os.outer_map_through_group_by
              << " outer-map-pushes=" << os.push_outer_map
              << " path-fusions=" << os.fuse_path_step << "\n"
              << "executor: hash-joins=" << es.hash_joins
              << " sort-joins=" << es.sort_joins
              << " range-joins=" << es.range_joins
              << " nl-joins=" << es.nested_loop_joins
              << " composite-joins=" << es.composite_joins
              << " group-bys=" << es.group_bys
              << " index-reuses=" << es.join_index_reuses
              << " source-tuples=" << es.source_tuples
              << " early-stops=" << es.streaming_early_stops << "\n"
              << "construct: nodes-copied=" << es.nodes_copied
              << " nodes-adopted=" << es.nodes_adopted << "\n"
              << "tree-join: sorts=" << es.tree_join.ddo_sorts
              << " dedups=" << es.tree_join.ddo_dedups
              << " skip-static=" << es.tree_join.ddo_skip_static
              << " skip-singleton=" << es.tree_join.ddo_skip_singleton
              << " skip-verified=" << es.tree_join.ddo_skip_verified
              << " index-lookups=" << es.tree_join.index_lookups << "\n"
              << "guard: checks=" << es.guard_checks
              << " steps=" << es.guard_steps
              << " peak-memory-bytes=" << es.peak_memory_bytes << "\n"
              << "parallel: partitions=" << es.parallel_partitions
              << " steals=" << es.parallel_steals
              << " fallbacks=" << es.parallel_fallbacks << "\n"
              << "collections: resolved=" << es.doc_store.collections_resolved
              << " members=" << es.doc_store.collection_members
              << " skipped=" << es.doc_store.collection_members_skipped
              << " reorders=" << es.doc_store.collection_reorders << "\n"
              << "doc-store: hits=" << es.doc_store.hits
              << " misses=" << es.doc_store.misses
              << " evictions=" << es.doc_store.evictions
              << " retries=" << es.doc_store.retries
              << " quarantine-hits=" << es.doc_store.quarantine_hits
              << " negative-hits=" << es.doc_store.negative_hits
              << " stale-reloads=" << es.doc_store.stale_reloads
              << " singleflight-waits=" << es.doc_store.singleflight_waits
              << " uncached-oversize=" << es.doc_store.uncached_oversize
              << " breaker-fast-fails=" << es.doc_store.breaker_fast_fails
              << " brownout-serves=" << es.doc_store.brownout_serves
              << "\n"
              << "doc-store-snapshots: hits=" << es.doc_store.snapshot_hits
              << " writes=" << es.doc_store.snapshot_writes
              << " write-failures=" << es.doc_store.snapshot_write_failures
              << " quarantines=" << es.doc_store.snapshot_quarantines
              << " stale=" << es.doc_store.snapshot_stale
              << " brownout-serves=" << es.doc_store.snapshot_brownout_serves
              << " content-rechecks=" << es.doc_store.content_rechecks
              << " bytes-read=" << es.doc_store.snapshot_bytes_read
              << " bytes-written=" << es.doc_store.snapshot_bytes_written
              << "\n";
    xqc::DocumentStore::Counters sc = xqc::DocumentStore::Global()->counters();
    std::cerr << "doc-store-global: entries=" << sc.entries
              << " bytes=" << sc.bytes_cached
              << " quarantined=" << sc.quarantined
              << " hits=" << sc.totals.hits << " misses=" << sc.totals.misses
              << " evictions=" << sc.totals.evictions
              << " breaker-opens=" << sc.breaker_opens
              << " breaker-half-opens=" << sc.breaker_half_opens
              << " breaker-closes=" << sc.breaker_closes
              << " breakers-open=" << sc.breakers_open
              << " breaker-fast-fails=" << sc.totals.breaker_fast_fails
              << " brownout-serves=" << sc.totals.brownout_serves
              << " snapshot-hits=" << sc.totals.snapshot_hits
              << " snapshot-writes=" << sc.totals.snapshot_writes
              << " snapshot-quarantines=" << sc.totals.snapshot_quarantines
              << " snapshot-brownout-serves="
              << sc.totals.snapshot_brownout_serves << "\n";
  }
  return 0;
}
