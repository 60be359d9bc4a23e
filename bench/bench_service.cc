// Chaos harness: sustained multi-tenant load against QueryService at
// saturation, with mid-run I/O faults (IoFaultInjector) and guard faults
// (GuardFaultInjector) composed, exercising the whole overload-resilience
// stack at once (DESIGN.md "Overload policy"):
//
//   * hot traffic (registered shared document, no store I/O) from several
//     well-behaved tenants under tight deadlines,
//   * cold traffic (fn:doc through a DocumentStore with an intentionally
//     tiny cache, so every load is real I/O) that a mid-run fault window
//     drives into the circuit breaker, which must then recover,
//   * one abusive tenant flooding bursts far past its quota (XQC0010) and
//     the global queue bound (XQC0007),
//   * a sprinkle of injected guard trips riding along on hot queries.
//
// Invariants checked (non-zero exit on violation):
//   1. no deadlock: the run and the final Shutdown() complete,
//   2. every response carries either OK or an explicit coded status,
//   3. shed/rejected work fails *fast*: p99 of (latency - queue wait) for
//      the rejection codes stays under XQC_CHAOS_FAST_MS,
//   4. accepted (OK) work keeps its end-to-end latency bound: p99 within
//      the request deadline plus one guard-check quantum of slack,
//   5. the breaker demonstrably opens during the fault window and closes
//      (half-open probe) after it.
//
// Results (p50/p99 per outcome class + service/store counters) are written
// as JSON to XQC_CHAOS_OUT (default BENCH_service.json).
//
// Env knobs: XQC_CHAOS_MS (run length, default 3000), XQC_CHAOS_THREADS
// (client threads, default 8), XQC_CHAOS_SEED, XQC_CHAOS_OUT,
// XQC_CHAOS_FAST_MS (fast-fail bound, default 25).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/service/query_service.h"
#include "src/store/document_store.h"
#include "src/store/io_fault.h"
#include "src/xml/xml_parser.h"

namespace xqc {
namespace {

using Clock = std::chrono::steady_clock;

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : def;
}

std::string EnvStr(const char* name, const std::string& def) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : def;
}

uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dull;
}

struct Sample {
  std::string cls;         // "ok" or the status code
  int64_t total_us = 0;    // submit -> future ready
  int64_t queue_wait_ms = 0;
};

int64_t PercentileUs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct ClassStats {
  int64_t count = 0;
  std::vector<int64_t> total_us;
  std::vector<int64_t> fast_us;  // total - queue wait: the dispatch cost
};

// Number of violated invariants; the process exit code.
int failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) {
    std::fprintf(stderr, "[chaos] PASS %s\n", what.c_str());
  } else {
    std::fprintf(stderr, "[chaos] FAIL %s\n", what.c_str());
    failures++;
  }
}

}  // namespace

int ChaosMain() {
  const int64_t duration_ms = EnvInt("XQC_CHAOS_MS", 3000);
  const int64_t client_threads = std::max<int64_t>(
      2, EnvInt("XQC_CHAOS_THREADS", 8));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("XQC_CHAOS_SEED", 12345));
  const int64_t fast_ms = EnvInt("XQC_CHAOS_FAST_MS", 25);
  const std::string out_path = EnvStr("XQC_CHAOS_OUT", "BENCH_service.json");
  const int64_t hot_deadline_ms = 100;
  const int64_t cold_deadline_ms = 500;
  const int64_t slow_deadline_ms = 200;
  const int64_t tight_deadline_ms = 25;

  // --- cold documents on disk (every load is real, faultable I/O: the
  // --- store cache is sized so nothing fits).
  std::string dir = "/tmp/xqc_chaos_" + std::to_string(::getpid());
  std::system(("mkdir -p " + dir).c_str());
  constexpr int kColdDocs = 8;
  for (int i = 0; i < kColdDocs; i++) {
    std::ofstream f(dir + "/cold" + std::to_string(i) + ".xml");
    f << "<r>";
    for (int j = 0; j < 50; j++) f << "<x>" << j << "</x>";
    f << "</r>";
  }

  DocumentStoreOptions store_opts;
  store_opts.max_bytes = 1;  // force real I/O on every cold load
  store_opts.max_retries = 1;
  store_opts.retry_backoff_ms = 1;
  store_opts.breaker_threshold = 3;
  store_opts.breaker_cooldown_ms = 100;
  store_opts.brownout = true;
  DocumentStore store(store_opts);

  ServiceOptions opts;
  opts.num_threads = 4;
  opts.max_queue = 32;
  opts.admission_wait_ms = 0;
  opts.default_limits.deadline_ms = hot_deadline_ms;
  opts.tenant_max_in_flight = 8;
  opts.shed_on_dequeue = true;
  opts.predict_admission = true;
  opts.retry_backoff_ms = 2;
  opts.engine_options.use_doc_store = true;
  opts.document_store = &store;
  QueryService service(opts);

  // Hot document: registered and shared, resolved without store I/O.
  {
    std::string xml = "<doc>";
    for (int i = 0; i < 400; i++) {
      xml += "<item><id>" + std::to_string(i) + "</id></item>";
    }
    xml += "</doc>";
    Result<NodePtr> hot = ParseXml(xml);
    if (!hot.ok()) return 2;
    service.RegisterDocument("hot.xml", hot.value());
  }

  const std::string hot_query = "count(doc('hot.xml')//item[id mod 7 = 3])";
  const std::string slow_query =
      "count(for $x in doc('hot.xml')//item, $y in doc('hot.xml')//item "
      "where $x/id = $y/id return 1)";
  auto cold_query = [&](int i) {
    return "count(doc('" + dir + "/cold" + std::to_string(i) + ".xml')/r/x)";
  };

  // --- fault schedule: healthy third, fault window third, recovery third.
  IoFaultInjector io_fault;
  io_fault.mode = IoFaultMode::kFailOpen;
  io_fault.transient = true;
  io_fault.fail_n = 0;  // every attempt fails while installed
  std::atomic<bool> stop{false};
  std::thread fault_controller([&] {
    auto third = std::chrono::milliseconds(duration_ms / 3);
    std::this_thread::sleep_for(third);
    store.set_fault_injector(&io_fault);
    std::fprintf(stderr, "[chaos] fault window OPEN (fail-open on %s)\n",
                 dir.c_str());
    std::this_thread::sleep_for(third);
    store.set_fault_injector(nullptr);
    std::fprintf(stderr, "[chaos] fault window CLOSED\n");
  });

  // --- client fleet.
  std::mutex samples_mu;
  std::vector<Sample> samples;
  auto record = [&](Sample s) {
    std::lock_guard<std::mutex> lock(samples_mu);
    samples.push_back(std::move(s));
  };
  auto classify = [](const QueryResponse& resp) {
    if (resp.status.ok()) return std::string("ok");
    return resp.status.code().empty() ? std::string("uncoded")
                                      : resp.status.code();
  };

  const Clock::time_point t_end =
      Clock::now() + std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> clients;
  for (int64_t t = 0; t < client_threads; t++) {
    clients.emplace_back([&, t] {
      uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull * (t + 1));
      const bool flooder = (t == 0);
      const bool laggard = (t == 1);
      const std::string tenant = flooder    ? "flood"
                                 : laggard  ? "laggard"
                                            : "tenant" + std::to_string(t % 3);
      while (Clock::now() < t_end) {
        if (laggard) {
          // One tenant that queues a pile of heavy work and THEN a
          // tight-budget request behind it. Fair dequeue means only this
          // tenant's own backlog delays it — which is exactly what drives
          // the tight request into dispatch-time shedding / admission
          // prediction (its corpse-to-be fails fast with XQC0001/XQC0007
          // instead of wasting a worker).
          std::vector<std::pair<Clock::time_point,
                                std::future<QueryResponse>>> pile;
          for (int i = 0; i < 6; i++) {
            QueryRequest req;
            req.query_text = slow_query;
            req.tenant = tenant;
            pile.emplace_back(Clock::now(), service.Submit(std::move(req)));
          }
          QueryRequest tight;
          tight.query_text = hot_query;
          tight.tenant = tenant;
          tight.limits.deadline_ms = tight_deadline_ms;
          Clock::time_point start = Clock::now();
          QueryResponse resp = service.Run(std::move(tight));
          Sample s;
          s.cls = classify(resp);
          s.total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count();
          s.queue_wait_ms = resp.queue_wait_ms;
          record(std::move(s));
          for (auto& [pstart, f] : pile) {
            QueryResponse r = f.get();
            Sample ps;
            ps.cls = classify(r);
            ps.total_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - pstart)
                    .count();
            ps.queue_wait_ms = r.queue_wait_ms;
            record(std::move(ps));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        if (flooder) {
          // Burst far past both the per-tenant quota (16 submissions per
          // flood tenant vs a cap of 8 -> XQC0010) and the global queue
          // (the ~32 quota-admitted submissions fill it -> XQC0007).
          // Synchronous rejections are timed at Submit return, before the
          // rest of the burst goes out, so their latency is honest.
          std::vector<std::pair<Clock::time_point,
                                std::future<QueryResponse>>> burst;
          for (int i = 0; i < 64; i++) {
            QueryRequest req;
            // Alternate cheap and heavy: the admitted heavy jobs pile real
            // queue delay onto everything submitted behind them, which is
            // what pushes tight-budget traffic into the shedding paths.
            req.query_text = (i % 2 == 0) ? hot_query : slow_query;
            req.tenant = tenant + std::to_string(i % 4);
            Clock::time_point start = Clock::now();
            std::future<QueryResponse> f = service.Submit(std::move(req));
            if (f.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
              QueryResponse resp = f.get();
              Sample s;
              s.cls = classify(resp);
              s.total_us =
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start)
                      .count();
              s.queue_wait_ms = resp.queue_wait_ms;
              record(std::move(s));
            } else {
              burst.emplace_back(start, std::move(f));
            }
          }
          for (auto& [start, f] : burst) {
            QueryResponse resp = f.get();
            Sample s;
            s.cls = classify(resp);
            s.total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - start)
                             .count();
            s.queue_wait_ms = resp.queue_wait_ms;
            record(std::move(s));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        QueryRequest req;
        req.tenant = tenant;
        const uint64_t roll = NextRand(&rng) % 100;
        if (roll < 50) {
          req.query_text = hot_query;
        } else if (roll < 80) {
          req.query_text = cold_query(static_cast<int>(roll) % kColdDocs);
          req.limits.deadline_ms = cold_deadline_ms;
        } else if (roll < 90) {
          // A deliberately heavy join: drags the EWMA up into the tens of
          // ms so dispatch-time shedding and admission prediction engage
          // during flood bursts.
          req.query_text = slow_query;
          req.limits.deadline_ms = slow_deadline_ms;
        } else {
          // Tight-budget traffic: during flood bursts the queue wait eats
          // this deadline, so these are the requests that get shed at
          // dispatch or rejected by the admission predictor.
          req.query_text = hot_query;
          req.limits.deadline_ms = tight_deadline_ms;
        }
        if (roll % 50 == 7) {
          // Compose a guard fault: trips the first slow-path check.
          req.fault_injector.trip_check_n = 1;
          req.fault_injector.trip_code = kGuardCancelledCode;
        }
        Clock::time_point start = Clock::now();
        QueryResponse resp = service.Run(std::move(req));
        Sample s;
        s.cls = classify(resp);
        s.total_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - start)
                         .count();
        s.queue_wait_ms = resp.queue_wait_ms;
        const bool backoff = s.cls == kServiceOverloadedCode;
        record(std::move(s));
        // A rejected closed-loop client backs off briefly instead of
        // spin-resubmitting into a full queue.
        if (backoff) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (auto& c : clients) c.join();
  fault_controller.join();

  // Invariant 1: a clean shutdown bounded in time (deadlock detector).
  Clock::time_point sd0 = Clock::now();
  service.Shutdown();
  int64_t shutdown_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now() - sd0)
                            .count();

  // --- aggregate.
  std::map<std::string, ClassStats> by_class;
  for (const Sample& s : samples) {
    ClassStats& c = by_class[s.cls];
    c.count++;
    c.total_us.push_back(s.total_us);
    c.fast_us.push_back(std::max<int64_t>(0, s.total_us -
                                                 s.queue_wait_ms * 1000));
  }
  QueryService::Counters sc = service.counters();
  DocumentStore::Counters dc = store.counters();

  const char* kRejectCodes[] = {"XQC0007", "XQC0010"};
  std::vector<int64_t> reject_fast, shed_fast;
  for (const char* code : kRejectCodes) {
    auto it = by_class.find(code);
    if (it != by_class.end()) {
      reject_fast.insert(reject_fast.end(), it->second.fast_us.begin(),
                         it->second.fast_us.end());
    }
  }
  if (auto it = by_class.find("XQC0001"); it != by_class.end()) {
    shed_fast = it->second.fast_us;
  }

  Check(shutdown_ms < 10'000,
        "shutdown completed promptly (" + std::to_string(shutdown_ms) + "ms)");
  Check(by_class.count("uncoded") == 0, "every failure carries a code");
  Check(by_class.count("ok") != 0 && by_class["ok"].count > 0,
        "accepted work completed (" +
            std::to_string(by_class.count("ok") ? by_class["ok"].count : 0) +
            " ok)");
  Check(by_class.count("XQC0010") != 0, "flood tenant hit its quota");
  Check(by_class.count("XQC0007") != 0, "global admission bound enforced");
  Check(dc.breaker_opens >= 1, "breaker opened during the fault window (" +
                                   std::to_string(dc.breaker_opens) +
                                   " opens)");
  Check(dc.breaker_closes >= 1, "breaker recovered via half-open probe (" +
                                    std::to_string(dc.breaker_closes) +
                                    " closes)");
  if (!reject_fast.empty()) {
    int64_t p99 = PercentileUs(reject_fast, 0.99);
    Check(p99 < fast_ms * 1000,
          "rejections fail fast (p99 " + std::to_string(p99) + "us < " +
              std::to_string(fast_ms) + "ms)");
  }
  if (!shed_fast.empty()) {
    int64_t p99 = PercentileUs(shed_fast, 0.99);
    Check(p99 < fast_ms * 1000,
          "sheds fail fast past queue wait (p99 " + std::to_string(p99) +
              "us < " + std::to_string(fast_ms) + "ms)");
  }
  if (by_class.count("ok") != 0) {
    // End-to-end bound: deadline_includes_queue_wait caps total latency at
    // the (cold) deadline plus guard-quantum + scheduling slack.
    int64_t p99 = PercentileUs(by_class["ok"].total_us, 0.99);
    Check(p99 < (cold_deadline_ms + 250) * 1000,
          "accepted p99 within the end-to-end deadline bound (p99 " +
              std::to_string(p99) + "us)");
  }

  // --- JSON report.
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n  \"name\": \"chaos_service\",\n"
      << "  \"duration_ms\": " << duration_ms << ",\n"
      << "  \"client_threads\": " << client_threads << ",\n"
      << "  \"workers\": " << opts.num_threads << ",\n"
      << "  \"shutdown_ms\": " << shutdown_ms << ",\n"
      << "  \"invariant_failures\": " << failures << ",\n"
      << "  \"outcomes\": {\n";
  bool first = true;
  for (auto& [cls, c] : by_class) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << cls << "\": {\"count\": " << c.count
        << ", \"p50_us\": " << PercentileUs(c.total_us, 0.50)
        << ", \"p99_us\": " << PercentileUs(c.total_us, 0.99)
        << ", \"fast_p99_us\": " << PercentileUs(c.fast_us, 0.99) << "}";
  }
  out << "\n  },\n  \"service_counters\": {"
      << "\"submitted\": " << sc.submitted << ", \"completed\": "
      << sc.completed << ", \"failed\": " << sc.failed
      << ", \"rejected\": " << sc.rejected << ", \"retries\": " << sc.retries
      << ", \"shed_in_queue\": " << sc.shed_in_queue
      << ", \"rejected_predicted\": " << sc.rejected_predicted
      << ", \"tenant_rejected\": " << sc.tenant_rejected << "},\n"
      << "  \"store_counters\": {"
      << "\"breaker_opens\": " << dc.breaker_opens
      << ", \"breaker_half_opens\": " << dc.breaker_half_opens
      << ", \"breaker_closes\": " << dc.breaker_closes
      << ", \"breaker_fast_fails\": " << dc.totals.breaker_fast_fails
      << ", \"brownout_serves\": " << dc.totals.brownout_serves
      << ", \"retries\": " << dc.totals.retries << "}\n}\n";
  out.close();
  std::fprintf(stderr, "[chaos] wrote %s (%d invariant failure%s)\n",
               out_path.c_str(), failures, failures == 1 ? "" : "s");

  std::system(("rm -rf " + dir).c_str());
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// HTTP chaos mode (--http): the same saturation discipline driven through
// the wire instead of the in-process API. A live HttpServer fronts the
// QueryService; closed-loop tenants, a flooding tenant, and a
// malformed-frame client all talk real sockets. On top of the overload
// invariants this mode asserts the prepared-plan cache contract:
//   * cold (first-compile) p50 > hot (cache-hit) p50,
//   * hit counters are non-zero,
//   * the X-XQC-No-Plan-Cache ablation is byte-identical,
//   * every malformed frame gets a coded 4xx or a clean close,
//   * the crash-only drain completes bounded.
// Results go to XQC_HTTP_OUT (default BENCH_http.json).
// ---------------------------------------------------------------------------

int HttpChaosMain() {
  const int64_t duration_ms = EnvInt("XQC_CHAOS_MS", 3000);
  const int64_t client_threads =
      std::max<int64_t>(2, EnvInt("XQC_CHAOS_THREADS", 6));
  const uint64_t seed = static_cast<uint64_t>(EnvInt("XQC_CHAOS_SEED", 777));
  const std::string out_path = EnvStr("XQC_HTTP_OUT", "BENCH_http.json");

  ServiceOptions opts;
  opts.num_threads = 4;
  opts.max_queue = 32;
  opts.admission_wait_ms = 0;
  opts.default_limits.deadline_ms = 200;
  opts.tenant_max_in_flight = 8;
  opts.shed_on_dequeue = true;
  opts.retry_backoff_ms = 2;
  QueryService service(opts);
  {
    std::string xml = "<doc>";
    for (int i = 0; i < 400; i++) {
      xml += "<item><id>" + std::to_string(i) + "</id></item>";
    }
    xml += "</doc>";
    Result<NodePtr> hot = ParseXml(xml);
    if (!hot.ok()) return 2;
    service.RegisterDocument("hot.xml", hot.value());
  }

  HttpServerOptions hopts;
  hopts.port = 0;
  hopts.max_connections = 256;
  hopts.header_timeout_ms = 2000;
  hopts.drain_grace_ms = 2000;
  HttpServer server(hopts, &service);
  if (!server.Start().ok()) return 2;
  const int port = server.port();
  const std::string host = "127.0.0.1";

  const std::string hot_query = "count(doc('hot.xml')//item[id mod 7 = 3])";
  const std::string slow_query =
      "count(for $x in doc('hot.xml')//item, $y in doc('hot.xml')//item "
      "where $x/id = $y/id return 1)";

  auto classify = [](const Status& io, const HttpResponse& resp) {
    if (!io.ok()) return std::string("closed");
    if (resp.status == 200) return std::string("ok");
    const std::string* code = resp.FindHeader("x-xqc-code");
    if (code != nullptr) return *code;
    return "http" + std::to_string(resp.status);
  };

  // --- phase 1: plan-cache cold vs hot, measured before the storm.
  std::vector<int64_t> cold_us, hot_us;
  constexpr int kPlanQueries = 12;
  auto plan_query = [](int i) {
    return "count(for $i in 1 to " + std::to_string(100 + i) +
           " return $i * " + std::to_string(i + 2) + ")";
  };
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < kPlanQueries; i++) {
      HttpResponse resp;
      Clock::time_point t0 = Clock::now();
      Status st = HttpFetch(host, port, "POST", "/query", {}, plan_query(i),
                            &resp);
      int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - t0)
                       .count();
      if (!st.ok() || resp.status != 200) return 2;
      (round == 0 ? cold_us : hot_us).push_back(us);
    }
  }
  QueryService::PlanCacheStats warm = service.plan_cache_stats();

  // --- phase 2: ablation byte-identity through the wire.
  bool ablation_identical = true;
  for (int i = 0; i < kPlanQueries && ablation_identical; i++) {
    HttpResponse cached, uncached;
    if (!HttpFetch(host, port, "POST", "/query", {}, plan_query(i), &cached)
             .ok() ||
        !HttpFetch(host, port, "POST", "/query",
                   {{"X-XQC-No-Plan-Cache", "1"}}, plan_query(i), &uncached)
             .ok()) {
      ablation_identical = false;
      break;
    }
    ablation_identical = cached.status == 200 && uncached.status == 200 &&
                         cached.body == uncached.body;
  }

  // --- phase 3: mixed storm — tenants, a flooder, and a malformed client.
  std::mutex samples_mu;
  std::map<std::string, ClassStats> by_class;
  std::atomic<int64_t> malformed_sent{0}, malformed_clean{0};
  auto record = [&](const std::string& cls, int64_t us) {
    std::lock_guard<std::mutex> lock(samples_mu);
    ClassStats& c = by_class[cls];
    c.count++;
    c.total_us.push_back(us);
  };
  const Clock::time_point t_end =
      Clock::now() + std::chrono::milliseconds(duration_ms);
  std::vector<std::thread> clients;
  for (int64_t t = 0; t < client_threads; t++) {
    clients.emplace_back([&, t] {
      uint64_t rng = seed ^ (0x9e3779b97f4a7c15ull * (t + 1));
      const bool flooder = (t == 0);
      const bool vandal = (t == 1);  // speaks broken HTTP on purpose
      const std::string tenant = "tenant" + std::to_string(t % 3);
      // The malformed corpus the vandal cycles through.
      const std::string kBadWire[] = {
          "GET / HTTP/9.9\r\n\r\n",
          "POST /query HTTP/1.1\r\nContent-Length: 2\r\n"
          "Content-Length: 3\r\n\r\nab",
          std::string("POST /query HTTP/1.1\r\nX: a\0b\r\n\r\n", 33),
          "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
          "junk that is not HTTP at all\r\n\r\n",
          "POST /query HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
      };
      while (Clock::now() < t_end) {
        if (vandal) {
          HttpClient c;
          if (!c.Connect(host, port).ok()) continue;
          const std::string& wire =
              kBadWire[NextRand(&rng) % (sizeof(kBadWire) /
                                         sizeof(kBadWire[0]))];
          malformed_sent.fetch_add(1);
          if (!c.SendRaw(wire).ok()) continue;
          HttpResponse resp;
          Clock::time_point t0 = Clock::now();
          Status st = c.ReadResponse(&resp, 3000);
          int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - t0)
                           .count();
          if (st.ok() && resp.status >= 400 && resp.status < 500) {
            record("malformed-4xx", us);
          } else if (!st.ok()) {
            malformed_clean.fetch_add(1);
            record("closed", us);
          } else {
            record("malformed-UNEXPECTED-" + std::to_string(resp.status), us);
          }
          continue;
        }
        if (flooder) {
          // Tenant "flood" opens a burst of parallel connections, all
          // slow queries: past its quota they come back 429 [XQC0010],
          // and past the queue bound 429 [XQC0007] — now as HTTP codes.
          constexpr int kBurst = 24;
          std::vector<std::unique_ptr<HttpClient>> burst;
          std::vector<Clock::time_point> starts;
          for (int i = 0; i < kBurst; i++) {
            auto c = std::make_unique<HttpClient>();
            if (!c->Connect(host, port).ok()) break;
            std::string req = "POST /query HTTP/1.1\r\nHost: x\r\n"
                              "X-XQC-Tenant: flood\r\nContent-Length: " +
                              std::to_string(slow_query.size()) + "\r\n\r\n" +
                              slow_query;
            starts.push_back(Clock::now());
            if (!c->SendRaw(req).ok()) break;
            burst.push_back(std::move(c));
          }
          for (size_t i = 0; i < burst.size(); i++) {
            HttpResponse resp;
            Status st = burst[i]->ReadResponse(&resp, 10'000);
            int64_t us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - starts[i])
                    .count();
            record(classify(st, resp), us);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        // Closed-loop keep-alive tenant.
        HttpClient c;
        if (!c.Connect(host, port).ok()) continue;
        for (int i = 0; i < 16 && Clock::now() < t_end; i++) {
          const uint64_t roll = NextRand(&rng) % 100;
          std::vector<std::pair<std::string, std::string>> headers = {
              {"X-XQC-Tenant", tenant}};
          std::string q = hot_query;
          if (roll >= 80) {
            q = slow_query;
          } else if (roll >= 70) {
            headers.push_back({"X-XQC-Deadline-Ms", "10"});  // tight budget
          }
          HttpResponse resp;
          Clock::time_point t0 = Clock::now();
          Status st = c.Request("POST", "/query", headers, q, &resp, 10'000);
          int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - t0)
                           .count();
          record(classify(st, resp), us);
          if (!st.ok() || !resp.keep_alive) break;
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  // --- phase 4: crash-only drain, bounded.
  Clock::time_point d0 = Clock::now();
  server.Stop();
  service.Shutdown();
  const int64_t drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - d0)
          .count();

  HttpServer::Counters hc = server.counters();
  QueryService::PlanCacheStats pc = service.plan_cache_stats();
  const int64_t cold_p50 = PercentileUs(cold_us, 0.50);
  const int64_t hot_p50 = PercentileUs(hot_us, 0.50);

  Check(warm.hits > 0, "plan cache hits observed (" +
                           std::to_string(warm.hits) + ")");
  Check(hot_p50 < cold_p50,
        "cached plans beat cold compiles (hot p50 " +
            std::to_string(hot_p50) + "us < cold p50 " +
            std::to_string(cold_p50) + "us)");
  Check(ablation_identical, "--no-plan-cache ablation is byte-identical");
  Check(by_class.count("ok") != 0 && by_class["ok"].count > 0,
        "accepted work completed over the wire");
  Check(malformed_sent.load() > 0 &&
            (by_class.count("malformed-4xx") != 0 ||
             malformed_clean.load() > 0),
        "malformed frames got coded 4xx or clean closes (" +
            std::to_string(malformed_sent.load()) + " sent)");
  bool unexpected = false;
  for (auto& [cls, c] : by_class) {
    if (cls.rfind("malformed-UNEXPECTED", 0) == 0) unexpected = true;
  }
  Check(!unexpected, "no malformed frame got a 2xx/5xx");
  Check(by_class.count(kServiceOverloadedCode) != 0 ||
            by_class.count(kTenantOverQuotaCode) != 0,
        "overload surfaced as coded 429s through HTTP");
  Check(drain_ms < hopts.drain_grace_ms + 8000,
        "drain + shutdown bounded (" + std::to_string(drain_ms) + "ms)");
  Check(hc.requests > 0, "server counted requests");

  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n  \"name\": \"chaos_http\",\n"
      << "  \"duration_ms\": " << duration_ms << ",\n"
      << "  \"client_threads\": " << client_threads << ",\n"
      << "  \"drain_ms\": " << drain_ms << ",\n"
      << "  \"invariant_failures\": " << failures << ",\n"
      << "  \"plan_cache\": {\"hits\": " << pc.hits
      << ", \"misses\": " << pc.misses << ", \"compiles\": " << pc.compiles
      << ", \"negative_hits\": " << pc.negative_hits
      << ", \"waiters_coalesced\": " << pc.waiters_coalesced
      << ", \"entries\": " << pc.entries << ", \"bytes\": " << pc.bytes
      << ", \"cold_p50_us\": " << cold_p50 << ", \"cold_p99_us\": "
      << PercentileUs(cold_us, 0.99) << ", \"hot_p50_us\": " << hot_p50
      << ", \"hot_p99_us\": " << PercentileUs(hot_us, 0.99) << "},\n"
      << "  \"outcomes\": {\n";
  bool first = true;
  for (auto& [cls, c] : by_class) {
    if (!first) out << ",\n";
    first = false;
    out << "    \"" << cls << "\": {\"count\": " << c.count
        << ", \"p50_us\": " << PercentileUs(c.total_us, 0.50)
        << ", \"p99_us\": " << PercentileUs(c.total_us, 0.99) << "}";
  }
  out << "\n  },\n  \"http_counters\": {"
      << "\"accepted\": " << hc.accepted << ", \"requests\": " << hc.requests
      << ", \"responses_2xx\": " << hc.responses_2xx
      << ", \"responses_4xx\": " << hc.responses_4xx
      << ", \"responses_5xx\": " << hc.responses_5xx
      << ", \"malformed\": " << hc.malformed
      << ", \"client_closed_early\": " << hc.client_closed_early
      << ", \"bytes_in\": " << hc.bytes_in
      << ", \"bytes_out\": " << hc.bytes_out << "}\n}\n";
  out.close();
  std::fprintf(stderr, "[chaos-http] wrote %s (%d invariant failure%s)\n",
               out_path.c_str(), failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace xqc

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--http") return xqc::HttpChaosMain();
  }
  const char* mode = std::getenv("XQC_CHAOS_HTTP");
  if (mode != nullptr && std::string(mode) == "1") {
    return xqc::HttpChaosMain();
  }
  return xqc::ChaosMain();
}
