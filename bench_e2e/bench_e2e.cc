// xqc_bench: the layered end-to-end benchmark (run it through
// bench_e2e/run.py).
//
//   xqc_bench --workload W --seed N --seconds S --trace 0|1
//             --httpd PATH --workdir DIR [--corrupt-reference]
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   paper_suite    XMark Q1-Q20 + Clio N2-N4 through xqc_httpd, warm plans
//   store_churn    in-process DocumentStore over an on-disk corpus larger
//                  than its budget, with rewrites and parallel collections
//
// Every response is checked against the Core interpreter
// (EngineOptions::use_algebra = false), computed in a forked child before
// the set-up clock starts. --trace 0 prints the end-to-end metrics of a
// closed-loop run of --seconds; --trace 1 replays a fixed-length prefix of
// the same seeded request stream with spans around the calls into each
// layer, interleaved with the same calls made with the tracer off (the
// tracing overhead), and prints the per-layer metrics. The last line of
// standard output is the JSON result.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/compile/compiler.h"
#include "src/engine/engine.h"
#include "src/net/http_client.h"
#include "src/opt/ddo_infer.h"
#include "src/opt/optimizer.h"
#include "src/opt/parallel_infer.h"
#include "src/service/query_service.h"
#include "src/store/document_store.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace xqc_bench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// Traced requests of a traced run: enough for a p99 with ten samples
// beyond it.
constexpr int kTracedRequests = 1000;
// Minimum requests of a measured run, for the same reason.
constexpr int kMinMeasured = 1000;
// Equal slices of a measured run; throughput and CPU per query are their
// medians.
constexpr int kSlices = 9;

struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// --- statistics ------------------------------------------------------------

// The value at quantile q, refused unless at least ten samples lie beyond
// it (the steadiness guard).
double Quantile(std::vector<double> v, double q, const std::string& what) {
  const size_t n = v.size();
  const size_t idx =
      n == 0 ? 0
             : static_cast<size_t>(std::ceil(q * static_cast<double>(n))) - 1;
  if (n == 0 || n - 1 - idx < 10) {
    throw Fatal("refusing to report " + what + ": " + std::to_string(n) +
                " samples leave fewer than ten beyond the quantile");
  }
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double Median(const std::vector<double>& v, const std::string& what) {
  return Quantile(v, 0.5, what);
}

// Median of a few values (the set-ups of one run, the slices of a timed
// window), exempt from the guard.
double SmallMedian(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Throughput and CPU time per completion of each slice of a timed window,
// so that a stall of the host during part of a run moves their medians
// less than it would move whole-run averages.
class SliceMeter {
 public:
  // `cpu_ms` reads the measured program's CPU time.
  SliceMeter(double seconds, std::function<double()> cpu_ms)
      : slice_ns_(static_cast<int64_t>(seconds * 1e9 / kSlices)),
        cpu_ms_(std::move(cpu_ms)),
        start_(NowNs()),
        cpu_start_(cpu_ms_()) {}

  // Called after every request; closes the slice when its time is up.
  void Done(bool ok) {
    ok_ += ok ? 1 : 0;
    if (NowNs() - start_ >= slice_ns_) Close();
  }

  // Closes the last, partial slice of a run extended to kMinMeasured.
  void Finish() {
    if (ok_ > 0) Close();
  }

  double qps() const { return SmallMedian(qps_); }
  double cpu_per_query() const { return SmallMedian(cpu_); }

 private:
  void Close() {
    const int64_t now = NowNs();
    const double cpu = cpu_ms_();
    qps_.push_back(static_cast<double>(ok_) / ((now - start_) / 1e9));
    cpu_.push_back((cpu - cpu_start_) / static_cast<double>(std::max(ok_, 1L)));
    start_ = now;
    cpu_start_ = cpu;
    ok_ = 0;
  }

  const int64_t slice_ns_;
  std::function<double()> cpu_ms_;
  int64_t start_;
  double cpu_start_;
  long ok_ = 0;
  std::vector<double> qps_, cpu_;
};

// --- /proc readers ---------------------------------------------------------

double ProcCpuMs(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), {});
  const size_t close = s.rfind(')');
  if (close == std::string::npos) throw Fatal("cannot read /proc stat");
  std::istringstream in(s.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command: state(3) ... utime(14) stime(15).
  for (int i = 3; i <= 15 && in >> field; i++) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcHwmMb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  throw Fatal("no VmHWM in /proc status");
}

double SelfCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

// --- references ------------------------------------------------------------

struct RefJob {
  std::string query;
  std::vector<int> docs;  // indices into the job set's documents
};

void WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) _exit(3);
    p += w;
    n -= static_cast<size_t>(w);
  }
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Evaluates every job with the interpreter in a forked child (so its
// memory never shows in this process's peak RSS), on up to four threads.
std::vector<std::string> ComputeReferences(const std::vector<DocInput>& docs,
                                         const std::vector<RefJob>& jobs) {
  int fds[2];
  if (pipe(fds) != 0) throw Fatal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw Fatal("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<xqc::NodePtr> trees;
    for (const DocInput& d : docs) {
      xqc::Result<xqc::NodePtr> t = xqc::ParseXml(d.text);
      if (!t.ok()) _exit(4);
      trees.push_back(t.take());
    }
    xqc::EngineOptions interp;
    interp.use_algebra = false;
    const xqc::Engine engine(interp);
    std::vector<std::pair<bool, std::string>> out(jobs.size());
    // Jobs are pulled from the end: the paper's costliest shapes (N4, N3)
    // come last in the list and start first.
    std::atomic<int> next{static_cast<int>(jobs.size()) - 1};
    auto worker = [&] {
      for (int i = next--; i >= 0; i = next--) {
        xqc::DynamicContext ctx;
        for (int d : jobs[i].docs) ctx.RegisterDocument(docs[d].uri, trees[d]);
        xqc::Result<std::string> r = engine.Execute(jobs[i].query, &ctx);
        out[i] = r.ok() ? std::make_pair(true, r.take())
                        : std::make_pair(false, r.status().ToString());
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    for (const auto& [ok, text] : out) {
      const uint8_t flag = ok ? 1 : 0;
      const uint64_t len = text.size();
      WriteAll(fds[1], &flag, 1);
      WriteAll(fds[1], &len, sizeof len);
      WriteAll(fds[1], text.data(), text.size());
    }
    _exit(0);
  }
  ::close(fds[1]);
  std::vector<std::string> refs;
  std::string error;
  for (size_t i = 0; i < jobs.size() && error.empty(); i++) {
    uint8_t flag = 0;
    uint64_t len = 0;
    std::string text;
    if (!ReadAll(fds[0], &flag, 1) || !ReadAll(fds[0], &len, sizeof len)) {
      error = "reference child died";
      break;
    }
    text.resize(len);
    if (!ReadAll(fds[0], text.data(), len)) error = "reference child died";
    if (!flag) error = "reference failed for " + jobs[i].query + ": " + text;
    refs.push_back(std::move(text));
  }
  ::close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!error.empty()) throw Fatal(error);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw Fatal("reference child failed");
  }
  return refs;
}

// The benchmark's own test hook: a wrong reference must show up as a
// failure in success_rate.
void CorruptReference(std::string* ref) { *ref += "#"; }

// --- correctness -----------------------------------------------------------

struct Checker {
  int64_t reported = 0;
  // True when `got` equals the reference byte for byte; otherwise prints
  // the shape and the first differing bytes (a few times per run).
  bool Check(const std::string& shape, int http_status, const std::string& got,
             const std::string& ref) {
    if (http_status == 200 && got == ref) return true;
    if (reported++ < 5) {
      size_t i = 0;
      while (i < got.size() && i < ref.size() && got[i] == ref[i]) i++;
      std::fprintf(stderr,
                   "MISMATCH shape=%s status=%d at byte %zu: got '%s' "
                   "expected '%s'\n",
                   shape.c_str(), http_status, i,
                   got.substr(i, 40).c_str(), ref.substr(i, 40).c_str());
    }
    return false;
  }
};

// --- tracing ---------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start = 0, end = 0;
  int parent = -1;
  int64_t request = -1;
};

// In-memory span recorder; written out when the run ends. A tracer made
// with `on` false records nothing (Begin returns -1, End 0): the untraced
// replay runs the same calls through it to measure the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool on = true) : on_(on) {}
  int Begin(const std::string& name, int parent, int64_t request) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes the span and returns its duration in ms.
  double End(int id) {
    if (id < 0) return 0;
    spans_[id].end = NowNs();
    return (spans_[id].end - spans_[id].start) / 1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

  void Write(const fs::path& path) const {
    std::ofstream f(path);
    for (const Span& s : spans_) {
      f << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start
        << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
    }
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// The layers (src/ modules) a span is attributed to, by name prefix.
const char* const kLayers[] = {"net",     "service", "xquery", "compile",
                               "opt",     "runtime", "xml",    "store"};

// Per-layer self time summed over the traced requests, the uncovered
// residual, and the traced request time they must add up to.
struct LayerTimes {
  std::map<std::string, double> self_ns;
  double request_ns = 0, uncovered_ns = 0;

  // Fills the shares from a span tree: each request's root span is the
  // request time, a layer span's self time is its duration minus its
  // children's, and the root's own self time is the uncovered residual.
  void AddTree(const Tracer& tracer) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      if (s.request < 0) continue;  // set-up spans
      const double self = static_cast<double>(s.end - s.start - child_ns[i]);
      if (s.parent < 0) {
        request_ns += static_cast<double>(s.end - s.start);
        uncovered_ns += self;
      } else {
        self_ns[s.name.substr(0, s.name.find('.'))] += self;
      }
    }
  }

  // Fails if the parts do not add up to the traced request time.
  void Report(std::map<std::string, double>* m) const {
    double sum = uncovered_ns;
    for (const auto& [layer, ns] : self_ns) sum += ns;
    if (request_ns <= 0 || std::fabs(sum - request_ns) > 1e-6 * request_ns + 1) {
      throw Fatal("trace self times do not add up to the request time");
    }
    for (const char* layer : kLayers) {
      auto it = self_ns.find(layer);
      (*m)[std::string("trace.self_pct.") + layer] =
          it == self_ns.end() ? 0.0 : 100.0 * it->second / request_ns;
    }
    (*m)["trace.uncovered_pct"] = 100.0 * uncovered_ns / request_ns;
  }
};

// --- per-layer helpers -----------------------------------------------------

int64_t CountOps(const xqc::Op& op) {
  int64_t n = 1;
  for (const xqc::OpPtr& c : op.inputs) n += c ? CountOps(*c) : 0;
  for (const xqc::OpPtr& c : op.deps) n += c ? CountOps(*c) : 0;
  return n;
}

int64_t CountQueryOps(const xqc::CompiledQuery& q) {
  int64_t n = CountOps(*q.plan);
  for (const auto& g : q.globals) n += g.second ? CountOps(*g.second) : 0;
  for (const auto& f : q.functions) n += CountOps(*f.second.plan);
  return n;
}

int64_t RewriteCount(const xqc::OptimizerStats& s) {
  return s.remove_map + s.insert_product + s.insert_join + s.insert_group_by +
         s.map_through_group_by + s.remove_duplicate_null +
         s.insert_outer_join + s.split_select + s.index_to_index_step +
         s.fuse_path_step + s.collapse_descendant;
}

struct PhaseResult {
  double parse_ms = 0, normalize_ms = 0, compile_ms = 0, optimize_ms = 0,
         analyze_ms = 0;
  int64_t compiled_ops = 0, optimized_ops = 0, rewrites = 0;
  std::string plan;
};

// Engine::Prepare's pipeline called one phase at a time, each under its
// own set-up span; the resulting plan text must equal Engine::Prepare's.
PhaseResult PreparePhases(const std::string& text, Tracer* tracer) {
  PhaseResult r;
  int s = tracer->Begin("xquery.parse", -1, -1);
  xqc::Result<xqc::Query> parsed = xqc::ParseXQuery(text);
  r.parse_ms = tracer->End(s);
  if (!parsed.ok()) throw Fatal("parse: " + parsed.status().ToString());
  s = tracer->Begin("xquery.normalize", -1, -1);
  xqc::Result<xqc::Query> core = xqc::NormalizeQuery(parsed.value());
  if (core.ok()) {
    xqc::HoistLeadingLets(&core.value());
    xqc::HoistNestedReturnBlocks(&core.value());
  }
  r.normalize_ms = tracer->End(s);
  if (!core.ok()) throw Fatal("normalize: " + core.status().ToString());
  s = tracer->Begin("compile.compile", -1, -1);
  xqc::Result<xqc::CompiledQuery> compiled = xqc::CompileQuery(core.value());
  r.compile_ms = tracer->End(s);
  if (!compiled.ok()) throw Fatal("compile: " + compiled.status().ToString());
  r.compiled_ops = CountQueryOps(compiled.value());
  s = tracer->Begin("opt.optimize", -1, -1);
  xqc::CompiledQuery opt;
  opt.plan = xqc::CloneOp(*compiled.value().plan);
  for (const auto& [name, plan] : compiled.value().globals) {
    opt.globals.emplace_back(name,
                             plan == nullptr ? nullptr : xqc::CloneOp(*plan));
  }
  for (const auto& [name, fn] : compiled.value().functions) {
    xqc::CompiledFunction f = fn;
    f.plan = xqc::CloneOp(*fn.plan);
    opt.functions.emplace(name, std::move(f));
  }
  xqc::OptimizerStats stats;
  xqc::OptimizeQuery(&opt, &stats);
  r.optimize_ms = tracer->End(s);
  s = tracer->Begin("opt.analyze", -1, -1);
  xqc::AnnotateDdoQuery(&opt);
  xqc::AnalyzeParallel(&opt);
  r.analyze_ms = tracer->End(s);
  r.optimized_ops = CountQueryOps(opt);
  r.rewrites = RewriteCount(stats);
  r.plan = xqc::OpToString(*opt.plan, true);
  return r;
}

// Exact per-pass ExecStats counters.
struct ExecCounts {
  int64_t guard_steps = 0, source_tuples = 0, hash_joins = 0,
          range_joins = 0, nested_loop_joins = 0, ddo_sorts = 0,
          index_lookups = 0, parallel_partitions = 0, parallel_fallbacks = 0,
          result_bytes = 0;
  double peak_memory_mb = 0;

  void Add(const xqc::ExecStats& s, size_t bytes) {
    guard_steps += s.guard_steps;
    source_tuples += s.source_tuples;
    hash_joins += s.hash_joins;
    range_joins += s.range_joins;
    nested_loop_joins += s.nested_loop_joins;
    ddo_sorts += s.tree_join.ddo_sorts;
    index_lookups += s.tree_join.index_lookups;
    parallel_partitions += s.parallel_partitions;
    parallel_fallbacks += s.parallel_fallbacks;
    result_bytes += static_cast<int64_t>(bytes);
    peak_memory_mb = std::max(peak_memory_mb, s.peak_memory_bytes / 1048576.0);
  }

  void Report(std::map<std::string, double>* m) const {
    (*m)["runtime.guard_steps"] = guard_steps;
    (*m)["runtime.source_tuples"] = source_tuples;
    (*m)["runtime.hash_joins"] = hash_joins;
    (*m)["runtime.range_joins"] = range_joins;
    (*m)["runtime.nested_loop_joins"] = nested_loop_joins;
    (*m)["runtime.peak_memory_mb"] = peak_memory_mb;
    (*m)["runtime.parallel_partitions"] = parallel_partitions;
    (*m)["runtime.parallel_fallbacks"] = parallel_fallbacks;
    (*m)["xml.result_bytes"] = result_bytes;
    (*m)["xml.ddo_sorts"] = ddo_sorts;
    (*m)["xml.index_lookups"] = index_lookups;
  }
};

// --- output ----------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"throughput_qps", "1/s"},   {"latency_p99_ms", "ms"},
      {"query_geomean_ms", "ms"},  {"success_rate", "ratio"},
      {"cpu_ms_per_query", "ms"},  {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef>* kDefs = [] {
    auto* d = new std::vector<MetricDef>{
        {"net.overhead_us", "us"},
        {"net.bytes_out_per_request", "B"},
        {"net.service_share_pct", "%"},
        {"service.dispatch_us", "us"},
        {"service.queue_wait_ms", "ms"},
        {"service.plan_cache_hit_ratio", "ratio"},
        {"xquery.parse_ms", "ms"},
        {"xquery.normalize_ms", "ms"},
        {"compile.compile_ms", "ms"},
        {"compile.plan_ops", "count"},
        {"opt.optimize_ms", "ms"},
        {"opt.analyze_ms", "ms"},
        {"opt.rewrites", "count"},
        {"opt.plan_ops", "count"},
    };
    for (const char* s : kPaperShapeNames) {
      d->push_back({std::string("runtime.execute_ms.") + s, "ms"});
    }
    const std::vector<MetricDef> rest = {
        {"runtime.guard_steps", "count"},
        {"runtime.source_tuples", "count"},
        {"runtime.hash_joins", "count"},
        {"runtime.range_joins", "count"},
        {"runtime.nested_loop_joins", "count"},
        {"runtime.peak_memory_mb", "MB"},
        {"runtime.parallel_partitions", "count"},
        {"runtime.parallel_fallbacks", "count"},
        {"xml.serialize_ms", "ms"},
        {"xml.result_bytes", "count"},
        {"xml.ddo_sorts", "count"},
        {"xml.index_lookups", "count"},
        {"xml.parse_mb_s", "MB/s"},
        {"store.load_hit_us", "us"},
        {"store.load_snapshot_ms", "ms"},
        {"store.load_parse_ms", "ms"},
        {"store.memory_hit_ratio", "ratio"},
        {"store.evictions", "count"},
        {"store.snapshot_hits", "count"},
        {"store.snapshot_writes", "count"},
        {"store.stale_reloads", "count"},
        {"store.snapshot_bytes_read", "count"},
        {"trace.overhead_pct", "%"},
        {"trace.uncovered_pct", "%"},
    };
    d->insert(d->end(), rest.begin(), rest.end());
    for (const char* layer : kLayers) {
      d->push_back({std::string("trace.self_pct.") + layer, "%"});
    }
    return d;
  }();
  return *kDefs;
}

// JSON has no infinity: a latency made infinite by failed requests (an
// incorrect run) prints as the largest double.
std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// Prints every metric of the chosen set (missing per-layer metrics of a
// layer the workload does not exercise read 0) and the JSON result line.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, double>& values, bool trace) {
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-32s %14.6g %s\n", d.name.c_str(), v, d.unit);
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + FormatNumber(v) + ", \"unit\": \"" + d.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- xqc_httpd child -------------------------------------------------------

class Server {
 public:
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  void Start(const std::string& httpd,
             const std::vector<std::pair<std::string, std::string>>& regs) {
    int fds[2];
    if (pipe(fds) != 0) throw Fatal("pipe failed");
    std::vector<std::string> args = {httpd, "--port", "0", "--threads", "2"};
    for (const auto& [uri, path] : regs) {
      args.push_back("--register");
      args.push_back(uri + "=" + path);
    }
    pid_ = fork();
    if (pid_ < 0) throw Fatal("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], 2);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    err_fd_ = fds[0];
    std::string out;
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (port_ == 0) {
      pollfd p{err_fd_, POLLIN, 0};
      if (NowNs() > deadline || poll(&p, 1, 1000) < 0) break;
      char buf[512];
      const ssize_t n = p.revents ? ::read(err_fd_, buf, sizeof buf) : 1;
      if (n <= 0) break;
      if (p.revents) out.append(buf, static_cast<size_t>(n));
      const size_t at = out.find("listening on ");
      const size_t eol = out.find('\n', at);
      if (at != std::string::npos && eol != std::string::npos) {
        const size_t colon = out.rfind(':', out.find(' ', at + 13));
        port_ = std::atoi(out.c_str() + colon + 1);
      }
    }
    if (port_ == 0) throw Fatal("xqc_httpd did not start: " + out);
  }

  // SIGTERM (the crash-only drain), then wait for the process to end.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; i++) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = 0;
    }
    if (err_fd_ >= 0) ::close(err_fd_);
    err_fd_ = -1;
    port_ = 0;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  // One counter from GET /stats, e.g. ("plan_cache", "hits").
  int64_t Stat(const std::string& section, const std::string& key) const {
    xqc::HttpResponse resp;
    xqc::Status st = xqc::HttpFetch("127.0.0.1", port_, "GET", "/stats", {},
                                    "", &resp);
    if (!st.ok() || resp.status != 200) throw Fatal("GET /stats failed");
    const size_t sec = resp.body.find("\"" + section + "\"");
    const size_t at = resp.body.find("\"" + key + "\": ", sec);
    if (sec == std::string::npos || at == std::string::npos) {
      throw Fatal("no " + section + "." + key + " in /stats");
    }
    return std::atoll(resp.body.c_str() + at + key.size() + 4);
  }

 private:
  pid_t pid_ = 0;
  int err_fd_ = -1;
  int port_ = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string httpd;
  fs::path workdir;
  bool corrupt_reference = false;

  // Spans of a traced run go beside the per-run work directory.
  fs::path TracePath() const {
    return workdir.parent_path() /
           ("trace-" + workload + "-" + std::to_string(seed) + ".jsonl");
  }
};

// --- serving workloads -----------------------------------------------------

struct PaperRun {
  const Options& opt;
  PaperSpec spec;
  std::vector<std::string> refs;  // per shape
  Checker checker;
  Server server;
  xqc::HttpClient client;  // one keep-alive connection
  int64_t attempted = 0, failed = 0;  // every request sent, warm-up too

  bool Count(bool good) {
    attempted++;
    failed += good ? 0 : 1;
    return good;
  }

  explicit PaperRun(const Options& o) : opt(o), spec(MakePaperSpec()) {
    std::vector<RefJob> jobs;
    for (const Shape& s : spec.shapes) jobs.push_back({s.text, {0, 1}});
    refs = ComputeReferences(spec.docs, jobs);
    if (o.corrupt_reference) CorruptReference(&refs[0]);
  }

  // Document generation, server start with registration (the server
  // parses), the connection, and a fixed warm-up. Returns seconds.
  double SetUp() {
    const int64_t t0 = NowNs();
    const PaperSpec fresh = MakePaperSpec();
    std::vector<std::pair<std::string, std::string>> regs;
    for (const DocInput& d : fresh.docs) {
      const fs::path p = opt.workdir / d.uri;
      std::ofstream(p, std::ios::binary) << d.text;
      regs.emplace_back(d.uri, p.string());
    }
    server.Start(opt.httpd, regs);
    client.Close();
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      throw Fatal("connect failed");
    }
    ShapeStream warm(spec.shapes.size(), opt.seed ^ 0x7761726dull);
    for (int i = 0; i < spec.warmup_requests; i++) {
      double ms = 0;
      Count(Send(warm.Next(), &ms));
    }
    return MsSince(t0) / 1e3;
  }

  // One request; true when the response is correct. `ms` is the time
  // from send to full response.
  bool Send(int shape, double* ms) {
    xqc::HttpResponse resp;
    const int64_t t0 = NowNs();
    xqc::Status st =
        client.Request("POST", "/query", {}, spec.shapes[shape].text, &resp);
    *ms = MsSince(t0);
    if (!st.ok()) {
      client.Close();
      client.Connect("127.0.0.1", server.port());
    }
    return checker.Check(spec.shapes[shape].name, st.ok() ? resp.status : 0,
                         resp.body, refs[shape]);
  }

  void Measure(std::map<std::string, double>* m) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; k++) {
      if (k > 0) server.Stop();
      setups.push_back(SetUp());
    }
    ShapeStream stream(spec.shapes.size(), opt.seed);
    std::vector<double> all_ms;
    std::vector<std::vector<double>> shape_ms(spec.shapes.size());
    int64_t ok = 0;
    const pid_t pid = server.pid();
    SliceMeter slices(opt.seconds, [pid] { return ProcCpuMs(pid); });
    const int64_t t0 = NowNs();
    while (MsSince(t0) < opt.seconds * 1e3 || all_ms.size() < kMinMeasured) {
      const int shape = stream.Next();
      double ms = 0;
      const bool good = Count(Send(shape, &ms));
      slices.Done(good);
      // A failed request misses every latency limit.
      all_ms.push_back(good ? ms : INFINITY);
      if (good) {
        ok++;
        shape_ms[shape].push_back(ms);
      }
    }
    slices.Finish();
    (*m)["peak_rss_mb"] = ProcHwmMb(server.pid());
    server.Stop();
    // A shape none of whose requests succeeded (an incorrect run) is left
    // out of the geometric mean; the run reports correct = false anyway.
    double log_sum = 0;
    int shapes = 0;
    for (size_t s = 0; s < shape_ms.size(); s++) {
      if (shape_ms[s].empty()) continue;
      log_sum += std::log(Median(shape_ms[s], spec.shapes[s].name + " median"));
      shapes++;
    }
    (*m)["throughput_qps"] = slices.qps();
    (*m)["latency_p99_ms"] = Quantile(all_ms, 0.99, "latency p99");
    (*m)["query_geomean_ms"] = std::exp(log_sum / std::max(shapes, 1));
    (*m)["success_rate"] = static_cast<double>(ok) / all_ms.size();
    (*m)["cpu_ms_per_query"] = slices.cpu_per_query();
    (*m)["setup_s"] = SmallMedian(setups);
  }

  // What the traced rounds of a replay collect, and how long the traced
  // and the untraced rounds took.
  struct ReplayData {
    LayerTimes layers;
    std::vector<double> net_us, dispatch_us, queue_ms, http_ms;
    std::vector<std::vector<double>> exec_ms;  // per shape
    double serialize_ms = 0;
    ExecCounts counts;  // one suite pass
    double traced_s = 0, untraced_s = 0;
  };

  // Replays the seeded stream, one round (every shape once, in seeded
  // order) at a time, alternating rounds with the tracer off and on until
  // kTracedRequests requests are traced: both sides do the same work, and
  // interleaving them keeps a change of host speed out of the tracing
  // overhead. Each request is sent over HTTP (the "request" span, the time
  // a client sees), then run again in process: through the twin
  // QueryService, and as Execute plus SerializeSequence of the same plan
  // (the "twin" span). The runs are separate executions, so a layer's
  // self time is the difference of the nested calls on the same request:
  // net = HTTP - Run, service = Run - (Execute + SerializeSequence),
  // runtime = Execute, xml = SerializeSequence; they add up to the HTTP
  // time, and the request span's remainder (checking the response) is the
  // uncovered residual. Plans are warm on every path, so xquery/compile/opt
  // take no request time.
  void Replay(Tracer* tracer, xqc::QueryService* service,
              xqc::DynamicContext* ctx,
              const std::vector<xqc::PreparedQuery>& plans, ReplayData* d) {
    const size_t round = spec.shapes.size();
    d->exec_ms.assign(round, {});
    Tracer off(false);
    ShapeStream stream(round, opt.seed);
    int64_t traced = 0;
    for (int64_t i = 0; traced < kTracedRequests; i++) {
      const bool on = (i / static_cast<int64_t>(round)) % 2 == 1;
      Tracer* t = on ? tracer : &off;
      const int shape_index = stream.Next();
      const std::string& text = spec.shapes[shape_index].text;
      const std::string& shape = spec.shapes[shape_index].name;
      const std::string& ref = refs[shape_index];

      const int64_t t0 = NowNs();
      const int root = t->Begin("request", -1, i);
      int s = t->Begin("net.request", root, i);
      xqc::HttpResponse resp;
      xqc::Status st = client.Request("POST", "/query", {}, text, &resp);
      const double h_ms = t->End(s);
      bool good = checker.Check(shape, st.ok() ? resp.status : 0, resp.body,
                                ref);
      const double req_ms = t->End(root);

      const int twin = t->Begin("twin", -1, i);
      s = t->Begin("service.run", twin, i);
      xqc::QueryRequest qr;
      qr.query_text = text;
      xqc::QueryResponse sresp = service->Run(std::move(qr));
      const double svc_ms = t->End(s);
      s = t->Begin("runtime.execute", twin, i);
      xqc::Result<xqc::Sequence> seq = plans[shape_index].Execute(ctx);
      const double ex_ms = t->End(s);
      s = t->Begin("xml.serialize", twin, i);
      const std::string out = seq.ok() ? xqc::SerializeSequence(seq.value())
                                       : seq.status().ToString();
      const double ser_ms = t->End(s);
      t->End(twin);
      good = checker.Check(shape + " (service)", sresp.status.ok() ? 200 : 500,
                           sresp.result, ref) &&
             checker.Check(shape + " (execute)", seq.ok() ? 200 : 500, out,
                           ref) &&
             good;
      Count(good);
      (on ? d->traced_s : d->untraced_s) += MsSince(t0) / 1e3;
      if (!on) continue;
      if (traced++ < static_cast<int64_t>(round)) {  // one suite pass
        d->counts.Add(plans[shape_index].last_exec_stats(), out.size());
      }

      LayerTimes& l = d->layers;
      l.request_ns += req_ms * 1e6;
      l.uncovered_ns += (req_ms - h_ms) * 1e6;
      l.self_ns["net"] += (h_ms - svc_ms) * 1e6;
      l.self_ns["service"] += (svc_ms - ex_ms - ser_ms) * 1e6;
      l.self_ns["runtime"] += ex_ms * 1e6;
      l.self_ns["xml"] += ser_ms * 1e6;
      d->http_ms.push_back(h_ms);
      d->net_us.push_back((h_ms - svc_ms) * 1e3);
      d->dispatch_us.push_back((svc_ms - ex_ms - ser_ms) * 1e3);
      d->queue_ms.push_back(static_cast<double>(sresp.queue_wait_ms));
      d->exec_ms[shape_index].push_back(ex_ms);
      d->serialize_ms += ser_ms;
    }
  }

  void Trace(std::map<std::string, double>* m) {
    Tracer tracer;
    // In-process twins of the server's state: the same documents and
    // ServiceOptions, so QueryService::Run sees the same request.
    xqc::DocumentStore store;
    xqc::ServiceOptions so;
    so.num_threads = 2;
    so.default_limits.deadline_ms = 1000;
    so.engine_options.use_doc_store = true;
    so.document_store = &store;
    xqc::QueryService service(so);
    xqc::DynamicContext ctx;
    double parse_ms = 0, parse_bytes = 0;
    for (const DocInput& d : spec.docs) {
      const int s = tracer.Begin("xml.parse", -1, -1);
      xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(d.text);
      parse_ms += tracer.End(s);
      parse_bytes += static_cast<double>(d.text.size());
      if (!doc.ok()) throw Fatal("parse " + d.uri);
      service.RegisterDocument(d.uri, doc.value());
      ctx.RegisterDocument(d.uri, doc.value());
    }
    (*m)["xml.parse_mb_s"] = parse_bytes / 1048576.0 / (parse_ms / 1e3);

    // The server compiles every shape during its warm-up. The in-process
    // paths do the same here: Engine::Prepare, the same pipeline called
    // one phase at a time (set-up spans; the run is refused unless both
    // print the same plan), and one Run to fill the twin's plan cache.
    SetUp();
    const xqc::Engine engine;
    std::vector<xqc::PreparedQuery> plans;
    std::vector<double> parse, normalize, compile, optimize, analyze;
    int64_t compiled_ops = 0, optimized_ops = 0, rewrites = 0;
    for (size_t i = 0; i < spec.shapes.size(); i++) {
      const Shape& shape = spec.shapes[i];
      xqc::Result<xqc::PreparedQuery> p = engine.Prepare(shape.text);
      if (!p.ok()) throw Fatal("prepare: " + p.status().ToString());
      plans.push_back(p.take());
      const PhaseResult ph = PreparePhases(shape.text, &tracer);
      if (ph.plan != plans.back().ExplainPlan()) {
        throw Fatal("trace fidelity: the phase-by-phase plan of " + shape.name +
                    " differs from Engine::Prepare's");
      }
      parse.push_back(ph.parse_ms);
      normalize.push_back(ph.normalize_ms);
      compile.push_back(ph.compile_ms);
      optimize.push_back(ph.optimize_ms);
      analyze.push_back(ph.analyze_ms);
      compiled_ops += ph.compiled_ops;
      optimized_ops += ph.optimized_ops;
      rewrites += ph.rewrites;
      xqc::QueryRequest qr;
      qr.query_text = shape.text;
      const xqc::QueryResponse r = service.Run(std::move(qr));
      Count(checker.Check(shape.name + " (service)", r.status.ok() ? 200 : 500,
                          r.result, refs[i]));
    }

    const int64_t hits0 = server.Stat("plan_cache", "hits");
    const int64_t misses0 = server.Stat("plan_cache", "misses");
    const int64_t bytes0 = server.Stat("http", "bytes_out");
    const int64_t reqs0 = server.Stat("http", "requests");
    ReplayData d;
    Replay(&tracer, &service, &ctx, plans, &d);
    const int64_t hits = server.Stat("plan_cache", "hits") - hits0;
    const int64_t misses = server.Stat("plan_cache", "misses") - misses0;
    (*m)["service.plan_cache_hit_ratio"] =
        static_cast<double>(hits) / std::max<int64_t>(hits + misses, 1);
    (*m)["net.bytes_out_per_request"] =
        static_cast<double>(server.Stat("http", "bytes_out") - bytes0) /
        static_cast<double>(server.Stat("http", "requests") - reqs0);
    server.Stop();
    tracer.Write(opt.TracePath());

    (*m)["net.overhead_us"] = Median(d.net_us, "net overhead");
    (*m)["service.dispatch_us"] = Median(d.dispatch_us, "service dispatch");
    (*m)["net.service_share_pct"] =
        100.0 * ((*m)["net.overhead_us"] + (*m)["service.dispatch_us"]) /
        (Median(d.http_ms, "http request") * 1e3);
    (*m)["service.queue_wait_ms"] =
        Quantile(d.queue_ms, 0.99, "queue wait p99");
    // Medians over the 23 one-time compiles (one per shape).
    (*m)["xquery.parse_ms"] = Median(parse, "parse time");
    (*m)["xquery.normalize_ms"] = Median(normalize, "normalize time");
    (*m)["compile.compile_ms"] = Median(compile, "compile time");
    (*m)["opt.optimize_ms"] = Median(optimize, "optimize time");
    (*m)["opt.analyze_ms"] = Median(analyze, "analyze time");
    (*m)["compile.plan_ops"] = static_cast<double>(compiled_ops);
    (*m)["opt.plan_ops"] = static_cast<double>(optimized_ops);
    (*m)["opt.rewrites"] = static_cast<double>(rewrites);
    for (size_t s = 0; s < spec.shapes.size(); s++) {
      (*m)["runtime.execute_ms." + spec.shapes[s].name] =
          Median(d.exec_ms[s], spec.shapes[s].name + " execute");
    }
    // Per suite pass: the traced rounds cover kTracedRequests / 23 passes.
    (*m)["xml.serialize_ms"] = d.serialize_ms *
                               static_cast<double>(spec.shapes.size()) /
                               kTracedRequests;
    d.counts.Report(m);
    (*m)["trace.overhead_pct"] = 100.0 * (1.0 - d.untraced_s / d.traced_s);
    d.layers.Report(m);
  }
};

// --- store_churn -----------------------------------------------------------

struct ChurnRun {
  const Options& opt;
  ChurnSpec spec;
  fs::path corpus, snapshots;
  // refs[d][v][literal] for reads; parts[d][v][threshold] for the
  // per-document slices of the collection aggregate.
  std::vector<std::vector<std::vector<std::string>>> reads, parts;
  Checker checker;
  int64_t attempted = 0, failed = 0;  // every request served, warm-up too

  bool Count(bool good) {
    attempted++;
    failed += good ? 0 : 1;
    return good;
  }

  static constexpr int64_t kUnlimited = int64_t{1} << 40;
  std::unique_ptr<xqc::DocumentStore> store;
  int64_t budget = 0;  // a quarter of the parsed corpus
  std::vector<int> version;                      // current version per doc
  std::vector<std::vector<xqc::PreparedQuery>> read_plans;  // [doc][literal]
  std::vector<xqc::PreparedQuery> collection_plans;         // [threshold]

  explicit ChurnRun(const Options& o)
      : opt(o),
        spec(MakeChurnSpec(o.seed)),
        corpus(fs::absolute(o.workdir / "corpus")),
        snapshots(fs::absolute(o.workdir / "snapshots")) {
    std::vector<DocInput> docs;
    std::vector<RefJob> jobs;
    for (int d = 0; d < spec.num_docs; d++) {
      const std::string path = (corpus / ChurnDocName(d)).string();
      for (int v = 0; v < 2; v++) {
        docs.push_back({path, spec.versions[d][v]});
        const int di = static_cast<int>(docs.size()) - 1;
        for (const std::string& id : spec.person_ids) {
          jobs.push_back({ChurnReadQuery(path, id), {di}});
        }
        for (int t : spec.thresholds) {
          jobs.push_back(
              {ChurnCollectionQuery("doc(\"" + path + "\")", t), {di}});
        }
      }
    }
    std::vector<std::string> flat = ComputeReferences(docs, jobs);
    if (o.corrupt_reference) CorruptReference(&flat[0]);
    size_t i = 0;
    reads.resize(spec.num_docs);
    parts.resize(spec.num_docs);
    for (int d = 0; d < spec.num_docs; d++) {
      for (int v = 0; v < 2; v++) {
        reads[d].emplace_back(flat.begin() + static_cast<long>(i),
                              flat.begin() + static_cast<long>(
                                                 i + spec.person_ids.size()));
        i += spec.person_ids.size();
        parts[d].emplace_back(flat.begin() + static_cast<long>(i),
                              flat.begin() + static_cast<long>(
                                                 i + spec.thresholds.size()));
        i += spec.thresholds.size();
      }
    }
  }

  // Writes version `v` of document d by temp file + rename, so the store
  // sees a new inode.
  bool WriteDoc(int d, int v) {
    const fs::path target = corpus / ChurnDocName(d);
    const fs::path tmp = target.string() + ".tmp";
    {
      std::ofstream f(tmp, std::ios::binary);
      f << spec.versions[d][v];
      if (!f) return false;
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) return false;
    version[d] = v;
    return true;
  }

  // A private store over the corpus, with its own snapshot directory,
  // loaded and then given a budget that holds a quarter of the parsed
  // corpus.
  std::unique_ptr<xqc::DocumentStore> NewStore(const fs::path& snapdir) {
    fs::remove_all(snapdir);
    fs::create_directories(snapdir);
    xqc::DocumentStoreOptions so;
    so.snapshot_dir = snapdir.string();
    so.max_bytes = kUnlimited;
    // No content rechecks: a rewrite renames a new file into place, which
    // the (inode, size, mtime) fingerprint sees, and a recheck window would
    // make the work per hit depend on how fast requests arrive.
    so.content_recheck_window_ms = 0;
    auto st = std::make_unique<xqc::DocumentStore>(so);
    for (int d = 0; d < spec.num_docs; d++) {
      if (!st->Load((corpus / ChurnDocName(d)).string()).ok()) {
        throw Fatal("cannot load corpus");
      }
    }
    budget = st->counters().bytes_cached / 4;
    st->set_max_bytes(budget);
    return st;
  }

  // The same warm-up for every seed: two passes that read every document
  // and run every collection threshold.
  void WarmUp(xqc::DocumentStore* st) {
    for (int pass = 0; pass < 2; pass++) {
      for (int d = 0; d < spec.num_docs; d++) {
        const int id = d % static_cast<int>(spec.person_ids.size());
        Count(Serve({ChurnKind::kRead, d, id}, nullptr, -1, st));
      }
      for (size_t t = 0; t < spec.thresholds.size(); t++) {
        Count(Serve({ChurnKind::kCollection, 0, static_cast<int>(t)}, nullptr,
                    -1, st));
      }
    }
  }

  // Generation, a fresh corpus, the store, prepared plans and the warm-up.
  // Returns seconds.
  double SetUp() {
    const int64_t t0 = NowNs();
    store.reset();
    spec = MakeChurnSpec(opt.seed);
    fs::remove_all(corpus);
    fs::create_directories(corpus);
    version.assign(spec.num_docs, 0);
    for (int d = 0; d < spec.num_docs; d++) {
      if (!WriteDoc(d, 0)) throw Fatal("cannot write corpus");
    }
    store = NewStore(snapshots);
    const xqc::Engine engine;
    read_plans.assign(spec.num_docs, {});
    for (int d = 0; d < spec.num_docs; d++) {
      for (const std::string& id : spec.person_ids) {
        xqc::Result<xqc::PreparedQuery> p = engine.Prepare(
            ChurnReadQuery((corpus / ChurnDocName(d)).string(), id));
        if (!p.ok()) throw Fatal("prepare: " + p.status().ToString());
        read_plans[d].push_back(p.take());
      }
    }
    xqc::EngineOptions par;
    par.parallelism = 2;
    collection_plans.clear();
    for (int t : spec.thresholds) {
      xqc::Result<xqc::PreparedQuery> p = engine.Prepare(
          ChurnCollectionQuery("fn:collection(\"" + corpus.string() + "\")",
                               t),
          par);
      if (!p.ok()) throw Fatal("prepare: " + p.status().ToString());
      collection_plans.push_back(p.take());
    }
    WarmUp(store.get());
    return MsSince(t0) / 1e3;
  }

  std::string CollectionRef(int t) const {
    std::string joined;
    for (int d = 0; d < spec.num_docs; d++) {
      const std::string& part = parts[d][version[d]][t];
      if (part.empty()) continue;
      if (!joined.empty()) joined += ' ';
      joined += part;
    }
    return joined;
  }

  // Per-request trace detail for the traced replay.
  struct Detail {
    Tracer* tracer = nullptr;
    std::vector<double> load_hit_us, load_snapshot_ms, load_parse_ms;
    ExecCounts counts;  // over the whole fixed replay
  };

  // Serves one request from store `st`; true when correct.
  bool Serve(const ChurnRequest& r, Detail* detail, int64_t request,
             xqc::DocumentStore* st) {
    Tracer* tracer = detail ? detail->tracer : nullptr;
    const int root = tracer ? tracer->Begin("request", -1, request) : -1;
    bool good = false;
    if (r.kind == ChurnKind::kRewrite) {
      good = WriteDoc(r.doc, 1 - version[r.doc]);
    } else {
      const bool read = r.kind == ChurnKind::kRead;
      const xqc::PreparedQuery& plan =
          read ? read_plans[r.doc][r.literal] : collection_plans[r.literal];
      if (tracer) {
        // Load ahead of the query, so that its own loads are hits and the
        // store's time is not counted as runtime: the read's document, or
        // every corpus document in URI order for a collection scan, under
        // a budget lifted for the scan (restoring it below evicts down to
        // the scan's last documents, as the scan itself leaves the cache).
        if (!read) st->set_max_bytes(kUnlimited);
        const int first = read ? r.doc : 0;
        const int last = read ? r.doc : spec.num_docs - 1;
        for (int d = first; d <= last; d++) {
          xqc::DocStoreStats ls;
          xqc::DocumentStore::LoadOptions lo;
          lo.stats = &ls;
          const int s = tracer->Begin("store.load", root, request);
          xqc::Result<xqc::NodePtr> doc =
              st->Load((corpus / ChurnDocName(d)).string(), lo);
          const double ms = tracer->End(s);
          if (!doc.ok()) throw Fatal("load: " + doc.status().ToString());
          if (ls.hits > 0) {
            detail->load_hit_us.push_back(ms * 1e3);
          } else if (ls.snapshot_hits > 0) {
            detail->load_snapshot_ms.push_back(ms);
          } else {
            detail->load_parse_ms.push_back(ms);
          }
        }
      }
      xqc::DynamicContext ctx;
      ctx.set_document_store(st);
      int s = tracer ? tracer->Begin("runtime.execute", root, request) : -1;
      xqc::Result<xqc::Sequence> seq = plan.Execute(&ctx);
      if (tracer) tracer->End(s);
      s = tracer ? tracer->Begin("xml.serialize", root, request) : -1;
      const std::string out = seq.ok() ? xqc::SerializeSequence(seq.value())
                                       : seq.status().ToString();
      if (tracer) tracer->End(s);
      if (tracer && !read) {
        s = tracer->Begin("store.evict", root, request);
        st->set_max_bytes(budget);
        tracer->End(s);
      }
      good = checker.Check(read ? "read" : "collection", seq.ok() ? 200 : 500,
                           out,
                           read ? reads[r.doc][version[r.doc]][r.literal]
                                : CollectionRef(r.literal));
      if (detail) detail->counts.Add(plan.last_exec_stats(), out.size());
    }
    if (tracer) tracer->End(root);
    return good;
  }

  void Measure(std::map<std::string, double>* m) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; k++) setups.push_back(SetUp());
    ChurnStream stream(spec, opt.seed);
    std::vector<double> all_ms;
    std::vector<double> read_ms, collection_ms;
    int64_t ok = 0;
    SliceMeter slices(opt.seconds, SelfCpuMs);
    const int64_t t0 = NowNs();
    while (MsSince(t0) < opt.seconds * 1e3 || all_ms.size() < kMinMeasured) {
      const ChurnRequest r = stream.Next();
      const int64_t s0 = NowNs();
      const bool good = Count(Serve(r, nullptr, -1, store.get()));
      const double ms = MsSince(s0);
      slices.Done(good);
      all_ms.push_back(good ? ms : INFINITY);
      if (!good) continue;
      ok++;
      if (r.kind == ChurnKind::kRead) read_ms.push_back(ms);
      if (r.kind == ChurnKind::kCollection) collection_ms.push_back(ms);
    }
    slices.Finish();
    (*m)["throughput_qps"] = slices.qps();
    (*m)["latency_p99_ms"] = Quantile(all_ms, 0.99, "latency p99");
    // The two query shapes; rewrites are file writes, not queries.
    (*m)["query_geomean_ms"] =
        std::sqrt(Median(read_ms, "read median") *
                  Median(collection_ms, "collection median"));
    (*m)["success_rate"] = static_cast<double>(ok) / all_ms.size();
    (*m)["cpu_ms_per_query"] = slices.cpu_per_query();
    (*m)["peak_rss_mb"] = ProcHwmMb(getpid());
    (*m)["setup_s"] = SmallMedian(setups);
  }

  void Trace(std::map<std::string, double>* m) {
    // Parse speed of the corpus documents.
    double parse_ms = 0, parse_bytes = 0;
    Tracer tracer;
    for (const auto& versions : spec.versions) {
      const int s = tracer.Begin("xml.parse", -1, -1);
      if (!xqc::ParseXml(versions[0]).ok()) throw Fatal("parse");
      parse_ms += tracer.End(s);
      parse_bytes += static_cast<double>(versions[0].size());
    }
    (*m)["xml.parse_mb_s"] = parse_bytes / 1048576.0 / (parse_ms / 1e3);

    // Untraced replay on a fresh store: the exact store counters.
    SetUp();
    const xqc::DocStoreStats before = store->counters().totals;
    ChurnStream untraced(spec, opt.seed);
    for (int i = 0; i < kTracedRequests; i++) {
      Count(Serve(untraced.Next(), nullptr, -1, store.get()));
    }
    const xqc::DocStoreStats after = store->counters().totals;
    const int64_t hits = after.hits - before.hits;
    const int64_t loads = hits + after.misses - before.misses;
    (*m)["store.memory_hit_ratio"] =
        static_cast<double>(hits) / std::max<int64_t>(loads, 1);
    (*m)["store.evictions"] = after.evictions - before.evictions;
    (*m)["store.snapshot_hits"] = after.snapshot_hits - before.snapshot_hits;
    (*m)["store.snapshot_writes"] =
        after.snapshot_writes - before.snapshot_writes;
    (*m)["store.stale_reloads"] = after.stale_reloads - before.stale_reloads;
    (*m)["store.snapshot_bytes_read"] =
        after.snapshot_bytes_read - before.snapshot_bytes_read;

    // The same stream served by two fresh stores over the same corpus,
    // request by request: one traced, one through the same calls with the
    // tracer off (the baseline for the tracing overhead). They see the
    // same files and requests, so they do the same work, and alternating
    // which goes first keeps a change of host speed out of the overhead.
    // A rewrite is one file write that both stores then see; its time
    // counts on both sides.
    SetUp();
    std::unique_ptr<xqc::DocumentStore> twin =
        NewStore(snapshots.string() + "-twin");
    WarmUp(twin.get());
    Tracer off(false);
    Detail baseline, detail;
    baseline.tracer = &off;
    detail.tracer = &tracer;
    ChurnStream traced(spec, opt.seed);
    double traced_s = 0, untraced_s = 0;
    for (int i = 0; i < kTracedRequests; i++) {
      const ChurnRequest r = traced.Next();
      if (r.kind == ChurnKind::kRewrite) {
        const int64_t t0 = NowNs();
        Count(Serve(r, &detail, i, store.get()));
        const double sec = MsSince(t0) / 1e3;
        traced_s += sec;
        untraced_s += sec;
        continue;
      }
      for (int k = 0; k < 2; k++) {
        const bool on = (i + k) % 2 == 0;
        const int64_t t0 = NowNs();
        Count(Serve(r, on ? &detail : &baseline, i,
                    on ? store.get() : twin.get()));
        (on ? traced_s : untraced_s) += MsSince(t0) / 1e3;
      }
    }
    tracer.Write(opt.TracePath());
    (*m)["store.load_hit_us"] = Median(detail.load_hit_us, "load hit");
    (*m)["store.load_snapshot_ms"] =
        Median(detail.load_snapshot_ms, "load snapshot");
    (*m)["store.load_parse_ms"] = Median(detail.load_parse_ms, "load parse");
    detail.counts.Report(m);
    (*m)["trace.overhead_pct"] = 100.0 * (1.0 - untraced_s / traced_s);
    LayerTimes layers;
    layers.AddTree(tracer);
    layers.Report(m);
  }
};

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const std::string v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw Fatal("missing value for " + a);
    i++;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--httpd") {
      o.httpd = v;
    } else if (a == "--workdir") {
      o.workdir = v;
    } else {
      throw Fatal("unknown flag " + a);
    }
  }
  if (o.workload.empty() || o.workdir.empty()) {
    throw Fatal("usage: xqc_bench --workload W --seed N --seconds S "
                "--trace 0|1 --httpd PATH --workdir DIR");
  }
  signal(SIGPIPE, SIG_IGN);
  fs::remove_all(o.workdir);
  fs::create_directories(o.workdir);

  std::map<std::string, double> m;
  int64_t attempted = 0, failed = 0;
  auto drive = [&](auto& run) {
    if (o.trace) {
      run.Trace(&m);
    } else {
      run.Measure(&m);
    }
    attempted = run.attempted;
    failed = run.failed;
  };
  if (o.workload == "paper_suite") {
    PaperRun run(o);
    drive(run);
  } else if (o.workload == "store_churn") {
    ChurnRun run(o);
    drive(run);
  } else {
    throw Fatal("unknown workload " + o.workload);
  }
  fs::remove_all(o.workdir);
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted, failed, m, o.trace);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xqc_bench

int main(int argc, char** argv) {
  try {
    return xqc_bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xqc_bench: %s\n", e.what());
    return 2;
  }
}
