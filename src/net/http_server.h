// A from-scratch, robustness-first HTTP/1.1 front end for QueryService
// (ROADMAP item 4): queries arrive over a wire, with the same overload
// and fault discipline the storage tier got in PRs 5–8.
//
// Endpoints:
//   POST /query       body = XQuery text; result (or coded error) in the
//                     response body. Per-request knobs ride in headers:
//                     X-XQC-Tenant, X-XQC-Deadline-Ms, X-XQC-Parallelism,
//                     X-XQC-No-Plan-Cache: 1.
//   POST /invalidate  body = query text to drop from the plan cache;
//                     empty body or "*" empties the cache.
//   GET  /stats       JSON: service counters, plan-cache stats, HTTP
//                     counters, EWMA, queue depth.
//   GET  /healthz     200 while the process is alive (even draining).
//   GET  /readyz      200 while accepting work; 503 [XQC0012] once
//                     draining — the load-balancer signal.
//
// Engineering posture (every line assumes a hostile or broken peer):
//   * One event-loop thread multiplexing all sockets with poll();
//     execution happens on the QueryService worker pool, which calls back
//     through QueryRequest::on_done + a self-pipe wakeup. No thread per
//     connection, no blocking call anywhere in the loop.
//   * Per-connection phase timeouts: header (slowloris defense), body
//     read, response write, and keep-alive idle. A connection that stops
//     making progress is evicted with 408 (where a response is still
//     possible) or a plain close.
//   * Hard caps: connection count (accept-loop backpressure — the
//     listener is not polled while at capacity or while the admission
//     queue is saturated), header bytes, body bytes, header count.
//   * Strict parsing: every malformed input maps to a 4xx carrying
//     XQC0013 — never a crash, never a hang, never an unbounded buffer.
//     Framing violations close the connection (resync is impossible);
//     well-formed errors keep it alive.
//   * Crash-only drain (SIGTERM/SIGINT via RequestDrainFromSignal, or
//     BeginDrain): stop accepting, flip /readyz, refuse new requests with
//     503 [XQC0012], let in-flight requests finish within their
//     deadlines, then cancel stragglers after drain_grace_ms via their
//     CancellationTokens (surfaced to clients as XQC0012). There is no
//     "flush" step that can wedge: Stop() always returns.
//   * NetFaultInjector (net_fault.h) drives every failure path
//     deterministically, like IoFaultInjector does for storage.
#ifndef XQC_NET_HTTP_SERVER_H_
#define XQC_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/net_fault.h"
#include "src/service/query_service.h"

namespace xqc {

// ---- Request parsing (exposed for the adversarial corpus in
// ---- tests/http_test.cc; the server consumes it incrementally) --------

struct HttpRequest {
  std::string method;        // e.g. "POST"
  std::string target;        // raw request target, e.g. "/query?x=1"
  std::string path;          // percent-decoded target up to '?'
  std::string query_string;  // raw bytes after '?' (may be empty)
  bool http11 = true;        // false = HTTP/1.0
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased keys
  std::string body;
  bool keep_alive = true;  // after Connection/version rules

  /// First value of `name` (lowercase), or nullptr.
  const std::string* FindHeader(const std::string& name) const;
};

struct HttpParseLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_headers = 100;
  size_t max_body_bytes = 1 * 1024 * 1024;
};

enum class HttpParseVerdict {
  kNeedMore,  // valid so far; feed more bytes
  kDone,      // *out filled; *consumed bytes of `in` were used
  kBad,       // protocol violation; *err filled; close after responding
};

struct HttpParseError {
  int http_status = 400;  // 400, 413, or 431
  std::string message;    // human detail; served as "[XQC0013] <message>"
};

/// Incremental strict HTTP/1.1 request parser. `in` is the connection's
/// cumulative unconsumed read buffer; on kDone, `*consumed` says how many
/// bytes belonged to this request (the rest is pipelined input for the
/// next one). Enforces CRLF line endings, token-only method/header names,
/// a single consistent Content-Length, chunked framing with bounded chunk
/// lines and discarded trailers, the byte caps in `limits`, and rejects
/// NUL/control bytes anywhere in the envelope.
HttpParseVerdict ParseHttpRequest(std::string_view in,
                                  const HttpParseLimits& limits,
                                  HttpRequest* out, size_t* consumed,
                                  HttpParseError* err);

/// The HTTP status an engine/service Status maps to (200 for OK; 4xx for
/// query-owned failures, 429/503/504 for load and lifecycle, 502 for
/// backend I/O). Exposed for tests.
int HttpStatusForQueryStatus(const Status& s);

// ---- Server ----------------------------------------------------------

struct HttpServerOptions {
  /// Bind address (IPv4 dotted quad) and port; port 0 = ephemeral (read
  /// the bound port back with port()).
  std::string bind_address = "127.0.0.1";
  int port = 0;

  /// Connection cap: the listener is not polled while this many
  /// connections are open (accept-loop backpressure; the kernel backlog
  /// absorbs short bursts). Accepting also pauses while
  /// QueryService::queue_depth() is at the service's max_queue: admission
  /// saturation pushes back on the socket instead of manufacturing
  /// instant 429s for everything buffered.
  int max_connections = 256;

  /// Phase timeouts (ms). header: first request byte -> blank line
  /// (slowloris defense). write: whole response. idle: keep-alive
  /// connection with no request in flight. The body read has a fixed
  /// 10 s timeout.
  int64_t header_timeout_ms = 5000;
  int64_t write_timeout_ms = 10000;
  int64_t idle_timeout_ms = 30000;

  /// Envelope caps (see HttpParseLimits).
  size_t max_header_bytes = 16 * 1024;
  size_t max_headers = 100;
  size_t max_body_bytes = 1 * 1024 * 1024;

  /// Drain: how long in-flight requests get after BeginDrain before their
  /// cancellation tokens fire.
  int64_t drain_grace_ms = 5000;

  /// Deterministic socket fault injection (tests only; non-owning).
  NetFaultInjector* fault_injector = nullptr;
};

class HttpServer {
 public:
  /// `service` must outlive the server. The server never owns or shuts
  /// down the QueryService — drain order is: server.Stop() (no more wire
  /// traffic), then service.Shutdown().
  HttpServer(HttpServerOptions options, QueryService* service);
  ~HttpServer();  // Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the event loop. Returns a kIOError status
  /// when the socket can't be set up (port in use, bad address).
  Status Start();

  /// The bound port (after a successful Start).
  int port() const { return port_; }

  /// Crash-only drain: closes the listener, flips /readyz to 503, refuses
  /// new requests with XQC0012, and arms the drain-grace cancellation of
  /// stragglers. Idempotent, non-blocking, callable from any thread.
  void BeginDrain();

  /// Async-signal-safe drain trigger for SIGTERM/SIGINT handlers: one
  /// write(2) on the self-pipe. The event loop performs BeginDrain.
  void RequestDrainFromSignal();

  /// Waits until every connection is closed and every in-flight request
  /// has completed, or `timeout_ms` elapsed. Returns whether fully
  /// drained.
  bool WaitDrained(int64_t timeout_ms);

  /// BeginDrain + wait out the grace + force-close whatever is left +
  /// join the loop. Always returns; idempotent; called by the destructor.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Monotonic wire-level counters (gauges noted). Safe to read any time.
  struct Counters {
    int64_t accepted = 0;          // connections accepted
    int64_t accept_faults = 0;     // injected/real accept failures survived
    int64_t accept_paused = 0;     // poll cycles with the listener parked
    int64_t requests = 0;          // well-formed requests routed
    int64_t responses_2xx = 0;
    int64_t responses_4xx = 0;
    int64_t responses_5xx = 0;
    int64_t malformed = 0;         // XQC0013 verdicts (subset of 4xx)
    int64_t drain_refused = 0;     // XQC0012 responses
    int64_t timeouts_header = 0;   // slowloris evictions
    int64_t timeouts_body = 0;
    int64_t timeouts_write = 0;
    int64_t idle_closed = 0;
    int64_t client_closed_early = 0;  // peer vanished mid request/response
    int64_t responses_truncated = 0;  // kMidResponseClose faults
    int64_t short_writes = 0;         // partial send()s observed
    int64_t stragglers_cancelled = 0; // drain-grace cancellations
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t open_connections = 0;  // gauge
    int64_t executing = 0;         // gauge: requests inside QueryService
  };
  Counters counters() const;

 private:
  enum class ConnState : uint8_t {
    kReadingHeaders,  // also keep-alive idle (buffer empty, no bytes yet)
    kReadingBody,     // implied by ParseHttpRequest needing body bytes
    kExecuting,       // submitted to QueryService; awaiting on_done
    kWriting,         // response bytes pending
  };

  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    ConnState state = ConnState::kReadingHeaders;
    std::string in;   // unconsumed request bytes (may hold pipelined next)
    std::string out;  // response bytes not yet written
    size_t out_off = 0;
    bool saw_request_bytes = false;  // idle vs header timeout
    bool close_after_response = false;
    bool peeked_data = false;  // kExecuting: stop polling POLLIN busily
    std::chrono::steady_clock::time_point phase_deadline{};
    std::chrono::steady_clock::time_point write_cooldown{};  // kSlowClient
    CancellationToken cancel;  // live while kExecuting
  };

  struct Completion {
    uint64_t conn_id = 0;
    QueryResponse resp;
  };

  void RunLoop();
  void DoBeginDrainLocked();  // loop-thread half of BeginDrain
  void AcceptReady();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  /// Parses as many buffered bytes as possible; dispatches or responds.
  void AdvanceConn(Conn* conn);
  void DispatchRequest(Conn* conn, HttpRequest req);
  std::string HandleInvalidate(const HttpRequest& req);
  std::string StatsJson();
  /// Queues `body` for writing and transitions to kWriting.
  void StartResponse(Conn* conn, int http_status, const std::string& code,
                     const std::string& body, const char* content_type,
                     bool close_conn);
  void CloseConn(uint64_t id);
  /// Applies completions the workers queued, matching conns by id.
  void DrainCompletions();
  std::chrono::steady_clock::time_point NextDeadline() const;
  void EnforceTimeouts();
  void CheckDrained();

  HttpServerOptions options_;
  QueryService* service_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_r_ = -1, wake_w_ = -1;  // self-pipe (also the signal path)
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_started_{};
  bool stragglers_cancelled_ = false;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  int64_t executing_ = 0;  // loop-thread owned; mirrored into counters

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  mutable std::mutex counters_mu_;
  Counters counters_;

  std::mutex drained_mu_;
  std::condition_variable drained_cv_;
  bool fully_drained_ = false;
};

}  // namespace xqc

#endif  // XQC_NET_HTTP_SERVER_H_
