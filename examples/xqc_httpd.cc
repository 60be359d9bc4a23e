// xqc_httpd: the XQuery compiler served over HTTP/1.1 (ROADMAP item 4).
//
//   $ ./build/examples/xqc_httpd --port 8080 &
//   $ curl -s -X POST --data-binary "1 to 5" localhost:8080/query
//   $ curl -s localhost:8080/stats | python3 -m json.tool
//   $ kill -TERM %1        # crash-only drain: finish in-flight, then exit
//
// Flags (all optional):
//   --port N               bind port (default 8080; 0 = ephemeral, printed)
//   --bind ADDR            bind address (default 127.0.0.1)
//   --threads N            QueryService worker threads (default 4)
//   --max-queue N          admission queue bound (default 64)
//   --max-connections N    open-connection cap (default 256)
//   --deadline-ms N        default per-query deadline (default 1000)
//   --drain-grace-ms N     in-flight grace after SIGTERM (default 5000)
//   --header-timeout-ms N  slowloris eviction bound (default 5000)
//   --idle-timeout-ms N    keep-alive idle bound (default 30000)
//   --max-body-bytes N     request body cap (default 1 MiB)
//   --no-plan-cache        ablation: disable the prepared-plan cache
//   --plan-cache-entries N plan cache capacity (default 128)
//   --register URI=PATH    parse PATH and register it as doc('URI')
//                          (repeatable; hot documents without store I/O)
//   --fault-mode NAME      install a NetFaultInjector (tests/demos):
//                          accept-fail, short-write, stalled-read,
//                          mid-response-close, slow-client
//
// Queries run with intra-query parallelism by default (ServiceOptions::
// engine_options = ServingEngineOptions(): the helper pool's width plus
// one): eligible plans — fn:collection scans and the flat join / GroupBy
// plans of nested FLWOR blocks — fan out over the process-wide pool while
// it has idle helpers, so --threads N workers share the same helpers. A
// request opts out with `X-XQC-Parallelism: 1`; GET /stats reports the
// splits in its "parallel" section.
//
// SIGTERM/SIGINT trigger the crash-only drain: the listener closes,
// /readyz flips to 503 [XQC0012], in-flight queries get drain-grace-ms to
// finish, stragglers are cancelled, and the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/http_server.h"
#include "src/service/query_service.h"
#include "src/store/document_store.h"
#include "src/xml/xml_parser.h"

namespace {

xqc::HttpServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe: one write(2) on the server's self-pipe.
  if (g_server != nullptr) g_server->RequestDrainFromSignal();
}

bool FlagInt(const char* flag, const char* name, const char* value,
             int64_t* out) {
  if (std::strcmp(flag, name) != 0) return false;
  *out = std::atoll(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t port = 8080, threads = 4, max_queue = 64, max_connections = 256;
  int64_t deadline_ms = 1000, drain_grace_ms = 5000;
  int64_t header_timeout_ms = 5000, idle_timeout_ms = 30000;
  int64_t max_body_bytes = 1 << 20, plan_cache_entries = 128;
  bool no_plan_cache = false;
  std::string bind = "127.0.0.1";
  std::string fault_mode;
  std::vector<std::pair<std::string, std::string>> registrations;

  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (std::strcmp(a, "--no-plan-cache") == 0) {
      no_plan_cache = true;
    } else if (std::strcmp(a, "--bind") == 0) {
      bind = v;
      i++;
    } else if (std::strcmp(a, "--fault-mode") == 0) {
      fault_mode = v;
      i++;
    } else if (std::strcmp(a, "--register") == 0) {
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) {
        std::fprintf(stderr, "--register wants URI=PATH, got '%s'\n", v);
        return 2;
      }
      registrations.emplace_back(std::string(v, eq - v), std::string(eq + 1));
      i++;
    } else if (FlagInt(a, "--port", v, &port) ||
               FlagInt(a, "--threads", v, &threads) ||
               FlagInt(a, "--max-queue", v, &max_queue) ||
               FlagInt(a, "--max-connections", v, &max_connections) ||
               FlagInt(a, "--deadline-ms", v, &deadline_ms) ||
               FlagInt(a, "--drain-grace-ms", v, &drain_grace_ms) ||
               FlagInt(a, "--header-timeout-ms", v, &header_timeout_ms) ||
               FlagInt(a, "--idle-timeout-ms", v, &idle_timeout_ms) ||
               FlagInt(a, "--max-body-bytes", v, &max_body_bytes) ||
               FlagInt(a, "--plan-cache-entries", v, &plan_cache_entries)) {
      i++;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a);
      return 2;
    }
  }

  xqc::DocumentStore store;  // fn:doc() against the filesystem
  xqc::ServiceOptions opts;
  opts.num_threads = static_cast<int>(threads);
  opts.max_queue = static_cast<size_t>(max_queue);
  opts.default_limits.deadline_ms = deadline_ms;
  opts.engine_options.use_doc_store = true;
  opts.document_store = &store;
  opts.plan_cache_entries =
      no_plan_cache ? 0 : static_cast<size_t>(plan_cache_entries);
  xqc::QueryService service(opts);

  for (const auto& [uri, path] : registrations) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(ss.str());
    if (!doc.ok()) {
      std::fprintf(stderr, "parse %s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 2;
    }
    service.RegisterDocument(uri, doc.value());
    std::fprintf(stderr, "registered doc('%s') from %s\n", uri.c_str(),
                 path.c_str());
  }

  xqc::NetFaultInjector injector;
  xqc::HttpServerOptions hopts;
  hopts.bind_address = bind;
  hopts.port = static_cast<int>(port);
  hopts.max_connections = static_cast<int>(max_connections);
  hopts.drain_grace_ms = drain_grace_ms;
  hopts.header_timeout_ms = header_timeout_ms;
  hopts.idle_timeout_ms = idle_timeout_ms;
  hopts.max_body_bytes = static_cast<size_t>(max_body_bytes);
  if (!fault_mode.empty()) {
    if (!xqc::NetFaultModeFromName(fault_mode, &injector.mode)) {
      std::fprintf(stderr, "unknown --fault-mode '%s'\n", fault_mode.c_str());
      return 2;
    }
    hopts.fault_injector = &injector;
    std::fprintf(stderr, "net fault injector armed: %s\n",
                 fault_mode.c_str());
  }

  xqc::HttpServer server(hopts, &service);
  xqc::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::fprintf(stderr,
               "xqc_httpd listening on %s:%d (workers=%lld queue=%lld "
               "plan_cache=%zu)\n",
               bind.c_str(), server.port(),
               static_cast<long long>(threads),
               static_cast<long long>(max_queue), opts.plan_cache_entries);
  std::fflush(stderr);

  // Park until a signal starts the drain, then run it to completion.
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "drain requested; waiting up to %lldms for in-flight "
                       "work\n",
               static_cast<long long>(drain_grace_ms));
  server.Stop();  // waits out the grace, cancels stragglers, force-closes
  g_server = nullptr;
  service.Shutdown();

  xqc::HttpServer::Counters c = server.counters();
  std::fprintf(stderr,
               "drained: requests=%lld 2xx=%lld 4xx=%lld 5xx=%lld "
               "malformed=%lld drain_refused=%lld stragglers_cancelled=%lld\n",
               static_cast<long long>(c.requests),
               static_cast<long long>(c.responses_2xx),
               static_cast<long long>(c.responses_4xx),
               static_cast<long long>(c.responses_5xx),
               static_cast<long long>(c.malformed),
               static_cast<long long>(c.drain_refused),
               static_cast<long long>(c.stragglers_cancelled));
  return 0;
}
