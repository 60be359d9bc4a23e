#include "src/net/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/base/strutil.h"

namespace xqc {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kNever = Clock::time_point::max();
/// listen(2) backlog: absorbs connection bursts while the listener is
/// parked by accept-loop backpressure.
constexpr int kListenBacklog = 128;
/// Body-read phase timeout: end of headers -> whole body.
constexpr int64_t kReadTimeoutMs = 10000;

/// RFC 7230 tchar: the characters legal in a method or header name.
bool IsTokenChar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

HttpParseVerdict Bad(HttpParseError* err, int status, std::string msg) {
  err->http_status = status;
  err->message = std::move(msg);
  return HttpParseVerdict::kBad;
}

/// A line may not smuggle stray CR or LF (the block was split on CRLF, so
/// any survivor is a bare-LF or bare-CR framing trick) or NUL/CTL bytes.
bool LineHasCtl(std::string_view line) {
  for (char c : line) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 && c != '\t') return true;
    if (u == 0x7f) return true;
  }
  return false;
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

HttpParseVerdict ParseHttpRequest(std::string_view in,
                                  const HttpParseLimits& limits,
                                  HttpRequest* out, size_t* consumed,
                                  HttpParseError* err) {
  *out = HttpRequest();
  *consumed = 0;
  const size_t hdr_end = in.find("\r\n\r\n");
  if (hdr_end == std::string_view::npos) {
    if (in.size() > limits.max_header_bytes) {
      return Bad(err, 431, "header block exceeds " +
                               std::to_string(limits.max_header_bytes) +
                               " bytes with no terminator");
    }
    // Fail garbage early instead of buffering it until the terminator:
    // a NUL can never appear in a valid envelope, and a blank line that
    // arrived as bare LFLF will never be followed by the CRLF form.
    if (in.find('\0') != std::string_view::npos) {
      return Bad(err, 400, "NUL byte in request envelope");
    }
    if (in.find("\n\n") != std::string_view::npos) {
      return Bad(err, 400, "bare-LF line endings (CRLF required)");
    }
    return HttpParseVerdict::kNeedMore;
  }
  const size_t block_len = hdr_end + 4;
  if (block_len > limits.max_header_bytes) {
    return Bad(err, 431, "header block exceeds " +
                             std::to_string(limits.max_header_bytes) +
                             " bytes");
  }
  std::string_view block = in.substr(0, hdr_end);  // without final CRLFCRLF

  // --- request line ----------------------------------------------------
  size_t line_end = block.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? block : block.substr(0, line_end);
  if (LineHasCtl(request_line)) {
    return Bad(err, 400, "control byte in request line");
  }
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Bad(err, 400, "request line is not 'METHOD target HTTP/1.x'");
  }
  std::string_view method = request_line.substr(0, sp1);
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || method.size() > 16) {
    return Bad(err, 400, "bad method");
  }
  for (char c : method) {
    if (c < 'A' || c > 'Z') return Bad(err, 400, "bad method token");
  }
  if (version == "HTTP/1.1") {
    out->http11 = true;
  } else if (version == "HTTP/1.0") {
    out->http11 = false;
  } else {
    return Bad(err, 400, "unsupported protocol version '" +
                             std::string(version) + "'");
  }
  if (target.empty() || target[0] != '/') {
    return Bad(err, 400, "request target must be origin-form (start with /)");
  }
  for (char c : target) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u >= 0x7f) {
      return Bad(err, 400, "illegal byte in request target");
    }
  }
  out->method = std::string(method);
  out->target = std::string(target);
  const size_t qmark = target.find('?');
  out->path = PercentDecode(target.substr(0, qmark));
  out->query_string = qmark == std::string_view::npos
                          ? std::string()
                          : std::string(target.substr(qmark + 1));

  // --- header fields ---------------------------------------------------
  size_t pos = line_end == std::string_view::npos ? block.size() : line_end + 2;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    std::string_view line = block.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? block.size() : eol + 2;
    if (out->headers.size() >= limits.max_headers) {
      return Bad(err, 431, "more than " + std::to_string(limits.max_headers) +
                               " header fields");
    }
    if (LineHasCtl(line)) return Bad(err, 400, "control byte in header field");
    if (line.empty() || line[0] == ' ' || line[0] == '\t') {
      return Bad(err, 400, "obsolete header folding / empty header line");
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Bad(err, 400, "header field without a name:value separator");
    }
    std::string_view name = line.substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) {
        return Bad(err, 400, "illegal character in header name");
      }
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    out->headers.emplace_back(ToLower(name), std::string(value));
  }

  // --- connection semantics -------------------------------------------
  out->keep_alive = out->http11;
  if (const std::string* conn = out->FindHeader("connection")) {
    const std::string lowered = ToLower(*conn);
    if (lowered.find("close") != std::string::npos) out->keep_alive = false;
    if (lowered.find("keep-alive") != std::string::npos && !out->http11) {
      out->keep_alive = true;
    }
  }

  // --- body framing ----------------------------------------------------
  const std::string* te = out->FindHeader("transfer-encoding");
  std::vector<const std::string*> cls;
  for (const auto& [k, v] : out->headers) {
    if (k == "content-length") cls.push_back(&v);
  }
  if (te != nullptr && !cls.empty()) {
    return Bad(err, 400,
               "both Content-Length and Transfer-Encoding present");
  }
  if (te != nullptr) {
    if (ToLower(*te) != "chunked") {
      return Bad(err, 400, "unsupported Transfer-Encoding '" + *te + "'");
    }
    // Chunked framing: size-line CRLF data CRLF ... 0 CRLF trailers CRLF.
    size_t p = block_len;
    for (;;) {
      const size_t eol = in.find("\r\n", p);
      if (eol == std::string_view::npos) {
        if (in.size() - p > 1024) {
          return Bad(err, 400, "unterminated chunk-size line");
        }
        return HttpParseVerdict::kNeedMore;
      }
      std::string_view size_line = in.substr(p, eol - p);
      if (size_line.size() > 1024) {
        return Bad(err, 400, "oversized chunk-size line");
      }
      const size_t semi = size_line.find(';');  // chunk extensions: ignored
      std::string_view hex = size_line.substr(0, semi);
      if (hex.empty() || hex.size() > 7) {
        return Bad(err, 400, "bad chunk size '" + std::string(size_line) +
                                 "'");
      }
      uint64_t chunk = 0;
      for (char c : hex) {
        int d;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
        else return Bad(err, 400, "non-hex chunk size");
        chunk = chunk * 16 + static_cast<uint64_t>(d);
      }
      if (out->body.size() + chunk > limits.max_body_bytes) {
        return Bad(err, 413, "chunked body exceeds " +
                                 std::to_string(limits.max_body_bytes) +
                                 " bytes");
      }
      p = eol + 2;
      if (chunk == 0) {
        // Trailers: zero or more header lines, then a blank line. They
        // are parsed for framing and discarded.
        size_t trailers = 0;
        for (;;) {
          const size_t teol = in.find("\r\n", p);
          if (teol == std::string_view::npos) {
            if (in.size() - p > 1024) {
              return Bad(err, 400, "unterminated chunk trailer");
            }
            return HttpParseVerdict::kNeedMore;
          }
          std::string_view tline = in.substr(p, teol - p);
          p = teol + 2;
          if (tline.empty()) {
            *consumed = p;
            return HttpParseVerdict::kDone;
          }
          if (LineHasCtl(tline) || ++trailers > 8 || tline.size() > 1024) {
            return Bad(err, 400, "bad chunk trailer");
          }
        }
      }
      if (in.size() < p + chunk + 2) return HttpParseVerdict::kNeedMore;
      if (in[p + chunk] != '\r' || in[p + chunk + 1] != '\n') {
        return Bad(err, 400, "chunk data not terminated by CRLF");
      }
      out->body.append(in.substr(p, chunk));
      p += chunk + 2;
    }
  }
  if (!cls.empty()) {
    for (const std::string* cl : cls) {
      if (!IsDigits(*cl) || cl->size() > 18 || *cl != *cls[0]) {
        return Bad(err, 400, "bad or conflicting Content-Length");
      }
    }
    const uint64_t n = std::stoull(*cls[0]);
    if (n > limits.max_body_bytes) {
      return Bad(err, 413, "declared body of " + *cls[0] + " bytes exceeds " +
                               std::to_string(limits.max_body_bytes));
    }
    if (in.size() < block_len + n) return HttpParseVerdict::kNeedMore;
    out->body = std::string(in.substr(block_len, n));
    *consumed = block_len + n;
    return HttpParseVerdict::kDone;
  }
  *consumed = block_len;
  return HttpParseVerdict::kDone;
}

int HttpStatusForQueryStatus(const Status& s) {
  if (s.ok()) return 200;
  switch (s.kind()) {
    case StatusKind::kParseError:
    case StatusKind::kXQueryError:
      return 400;
    case StatusKind::kNotImplemented:
      return 501;
    case StatusKind::kInternal:
      return 500;
    case StatusKind::kIOError:
      return 502;  // backend (document store / disk) failure
    case StatusKind::kResourceExhausted: {
      const std::string& code = s.code();
      if (code == kGuardTimeoutCode) return 504;
      if (code == kServiceOverloadedCode || code == kTenantOverQuotaCode) {
        return 429;
      }
      if (code == kServiceDrainingCode || code == kGuardCancelledCode) {
        return 503;
      }
      return 422;  // the query's own resource trips (memory/output/steps)
    }
    default:
      return 500;
  }
}

// ---- server lifecycle -------------------------------------------------

HttpServer::HttpServer(HttpServerOptions options, QueryService* service)
    : options_(std::move(options)), service_(service) {
  options_.max_connections = std::max(1, options_.max_connections);
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::IOError("bind(" + options_.bind_address + ":" +
                                std::to_string(options_.port) +
                                "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status st = Status::IOError("listen(): " + std::string(strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("pipe(): " + std::string(strerror(errno)));
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  ::fcntl(wake_r_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_w_, F_SETFL, O_NONBLOCK);

  started_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void HttpServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  RequestDrainFromSignal();  // any wake byte gets the loop to act on it
}

void HttpServer::RequestDrainFromSignal() {
  // Async-signal-safe: one write(2) on the pre-opened pipe, nothing else.
  if (wake_w_ >= 0) {
    const char c = 'D';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &c, 1);
  }
}

bool HttpServer::WaitDrained(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(drained_mu_);
  return drained_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [this] { return fully_drained_; });
}

void HttpServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  BeginDrain();
  // Grace for in-flight work plus slack for the final response writes;
  // whatever is left gets force-closed by the exiting loop. This bound is
  // what makes the drain crash-only: Stop() always returns.
  WaitDrained(options_.drain_grace_ms + 2000);
  stop_.store(true, std::memory_order_release);
  RequestDrainFromSignal();
  if (loop_.joinable()) loop_.join();
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  wake_r_ = wake_w_ = -1;
  started_.store(false, std::memory_order_release);
}

HttpServer::Counters HttpServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

// ---- event loop -------------------------------------------------------

void HttpServer::RunLoop() {
  bool drain_armed = false;
  while (true) {
    if (stop_.load(std::memory_order_acquire)) break;
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_armed) {
      drain_armed = true;
      drain_started_ = Clock::now();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);  // crash-only: no new connections, period
        listen_fd_ = -1;
      }
      // Idle keep-alive connections have nothing in flight — close them
      // now so drain completion only waits on real work. BeginDrain sets
      // draining_ from the caller's thread, so a request sent just before
      // the drain may still sit unread in the kernel buffer; MSG_PEEK
      // before declaring a connection idle (closing with unread data
      // would RST a request we were about to serve a clean XQC0012).
      std::vector<uint64_t> idle;
      for (auto& [id, conn] : conns_) {
        if (conn->state == ConnState::kReadingHeaders &&
            !conn->saw_request_bytes && conn->in.empty()) {
          char c;
          if (::recv(conn->fd, &c, 1, MSG_PEEK | MSG_DONTWAIT) != 1) {
            idle.push_back(id);  // no pending bytes (or EOF): truly idle
          }
        }
      }
      for (uint64_t id : idle) {
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          counters_.idle_closed++;
        }
        CloseConn(id);
      }
    }

    // --- build the poll set.
    std::vector<pollfd> fds;
    std::vector<uint64_t> fd_conn;  // conns_[i] id per fds entry (0 = none)
    fds.push_back({wake_r_, POLLIN, 0});
    fd_conn.push_back(0);
    bool listener_polled = false;
    if (listen_fd_ >= 0 && !draining) {
      const bool at_capacity =
          conns_.size() >= static_cast<size_t>(options_.max_connections);
      const bool queue_saturated =
          service_->queue_depth() >= service_->options().max_queue;
      if (!at_capacity && !queue_saturated) {
        fds.push_back({listen_fd_, POLLIN, 0});
        fd_conn.push_back(0);
        listener_polled = true;
      } else {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.accept_paused++;
      }
    }
    const Clock::time_point now = Clock::now();
    for (auto& [id, conn] : conns_) {
      short events = 0;
      switch (conn->state) {
        case ConnState::kReadingHeaders:
        case ConnState::kReadingBody:
          events = POLLIN;
          break;
        case ConnState::kExecuting:
          // Watch for the client vanishing, but stop once we have peeked
          // pipelined data (level-triggered POLLIN would spin).
          if (!conn->peeked_data) events = POLLIN;
          break;
        case ConnState::kWriting:
          if (conn->write_cooldown <= now) events = POLLOUT;
          break;
      }
      if (events == 0) continue;
      fds.push_back({conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    // --- poll timeout from the earliest timer.
    Clock::time_point next = NextDeadline();
    int timeout_ms = 1000;
    if (next != kNever) {
      auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
              .count();
      timeout_ms = static_cast<int>(std::clamp<int64_t>(left, 0, 1000));
    }
    ::poll(fds.data(), fds.size(), timeout_ms);

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      ssize_t n;
      while ((n = ::read(wake_r_, buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; i++) {
          if (buf[i] == 'D') draining_.store(true, std::memory_order_release);
        }
      }
    }
    DrainCompletions();
    for (size_t i = 1; i < fds.size(); i++) {
      if (fds[i].revents == 0) continue;
      if (fd_conn[i] == 0) {
        if (listener_polled && fds[i].fd == listen_fd_) AcceptReady();
        continue;
      }
      auto it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Conn* conn = it->second.get();
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          conn->state != ConnState::kWriting) {
        HandleReadable(conn);
      }
      it = conns_.find(fd_conn[i]);
      if (it == conns_.end()) continue;
      conn = it->second.get();
      if ((fds[i].revents & (POLLOUT | POLLHUP | POLLERR)) != 0 &&
          conn->state == ConnState::kWriting) {
        HandleWritable(conn);
      }
    }
    EnforceTimeouts();
    CheckDrained();
  }
  // Loop exit: force-close whatever survived the drain bound.
  for (auto& [id, conn] : conns_) {
    if (conn->cancel.live()) conn->cancel.RequestCancel();
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  CheckDrained();
}

void HttpServer::AcceptReady() {
  for (int i = 0; i < 64; i++) {
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) return;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      // EMFILE/ENFILE/ECONNABORTED: survivable — count it and keep
      // serving existing connections.
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.accept_faults++;
      return;
    }
    NetFaultInjector* inj = options_.fault_injector;
    if (inj != nullptr && inj->mode == NetFaultMode::kAcceptFail &&
        inj->Fire()) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.accept_faults++;
      continue;
    }
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->phase_deadline =
        Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    const uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.accepted++;
    counters_.open_connections = static_cast<int64_t>(conns_.size());
  }
}

void HttpServer::HandleReadable(Conn* conn) {
  if (conn->state == ConnState::kExecuting) {
    // Only peeking: data stays queued for the next request; EOF means the
    // client is gone and the in-flight work should stop burning a worker.
    char c;
    ssize_t n = ::recv(conn->fd, &c, 1, MSG_PEEK);
    if (n == 0) {
      if (conn->cancel.live()) conn->cancel.RequestCancel();
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.client_closed_early++;
      }
      CloseConn(conn->id);
    } else if (n > 0) {
      conn->peeked_data = true;
    }
    return;
  }
  NetFaultInjector* inj = options_.fault_injector;
  if (inj != nullptr && inj->mode == NetFaultMode::kStalledRead &&
      inj->Fire()) {
    // Pretend the bytes never arrived; stop polling so the stall is
    // silent, and let the phase timeout evict the connection.
    conn->peeked_data = true;  // reused as a "don't poll POLLIN" latch
    return;
  }
  bool got_bytes = false;
  for (;;) {
    char buf[4096];
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      got_bytes = true;
      conn->in.append(buf, static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.bytes_in += n;
      continue;
    }
    if (n == 0) {
      // EOF. Mid-request it's a premature close; between requests it's a
      // normal connection end.
      if (conn->saw_request_bytes || !conn->in.empty()) {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.client_closed_early++;
      }
      CloseConn(conn->id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn->id);  // ECONNRESET and friends
    return;
  }
  if (!got_bytes) return;
  if (!conn->saw_request_bytes) {
    conn->saw_request_bytes = true;
    conn->phase_deadline =
        Clock::now() + std::chrono::milliseconds(options_.header_timeout_ms);
  }
  // Absolute backstop on buffered bytes: the parser bounds header and
  // body, but a flood of pipelined garbage must not grow the buffer
  // unboundedly while a response is being computed.
  if (conn->in.size() >
      options_.max_header_bytes + options_.max_body_bytes + 65536) {
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.malformed++;
    }
    StartResponse(conn, 400, kMalformedRequestCode,
                  std::string("[") + kMalformedRequestCode +
                      "] pipelined input exceeds buffer cap\n",
                  "text/plain; charset=utf-8", /*close_conn=*/true);
    return;
  }
  AdvanceConn(conn);
}

void HttpServer::AdvanceConn(Conn* conn) {
  if (conn->state != ConnState::kReadingHeaders &&
      conn->state != ConnState::kReadingBody) {
    return;  // a response or execution is in flight; bytes wait their turn
  }
  HttpParseLimits limits;
  limits.max_header_bytes = options_.max_header_bytes;
  limits.max_headers = options_.max_headers;
  limits.max_body_bytes = options_.max_body_bytes;
  HttpRequest req;
  size_t consumed = 0;
  HttpParseError err;
  switch (ParseHttpRequest(conn->in, limits, &req, &consumed, &err)) {
    case HttpParseVerdict::kNeedMore:
      if (conn->state == ConnState::kReadingHeaders &&
          conn->in.find("\r\n\r\n") != std::string::npos) {
        conn->state = ConnState::kReadingBody;
        conn->phase_deadline =
            Clock::now() + std::chrono::milliseconds(kReadTimeoutMs);
      }
      return;
    case HttpParseVerdict::kBad: {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.malformed++;
      }
      // Framing is unrecoverable: respond and close.
      StartResponse(conn, err.http_status, kMalformedRequestCode,
                    std::string("[") + kMalformedRequestCode + "] " +
                        err.message + "\n",
                    "text/plain; charset=utf-8", /*close_conn=*/true);
      return;
    }
    case HttpParseVerdict::kDone:
      conn->in.erase(0, consumed);
      DispatchRequest(conn, std::move(req));
      return;
  }
}

void HttpServer::DispatchRequest(Conn* conn, HttpRequest req) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.requests++;
  }
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool close_conn = !req.keep_alive;

  if (req.path == "/healthz") {
    if (req.method != "GET") {
      StartResponse(conn, 405, "", "method not allowed\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    StartResponse(conn, 200, "", "ok\n", "text/plain; charset=utf-8",
                  close_conn);
    return;
  }
  if (req.path == "/readyz") {
    if (req.method != "GET") {
      StartResponse(conn, 405, "", "method not allowed\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    if (draining) {
      StartResponse(conn, 503, kServiceDrainingCode,
                    std::string("[") + kServiceDrainingCode +
                        "] service draining\n",
                    "text/plain; charset=utf-8", close_conn);
    } else {
      StartResponse(conn, 200, "", "ready\n", "text/plain; charset=utf-8",
                    close_conn);
    }
    return;
  }
  if (req.path == "/stats") {
    if (req.method != "GET") {
      StartResponse(conn, 405, "", "method not allowed\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    StartResponse(conn, 200, "", StatsJson(), "application/json", close_conn);
    return;
  }
  if (req.path == "/invalidate") {
    if (req.method != "POST") {
      StartResponse(conn, 405, "", "method not allowed\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    if (draining) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.drain_refused++;
      }
      StartResponse(conn, 503, kServiceDrainingCode,
                    std::string("[") + kServiceDrainingCode +
                        "] service draining\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    StartResponse(conn, 200, "", HandleInvalidate(req), "application/json",
                  close_conn);
    return;
  }
  if (req.path == "/query") {
    if (req.method != "POST") {
      StartResponse(conn, 405, "", "method not allowed\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    if (draining) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.drain_refused++;
      }
      StartResponse(conn, 503, kServiceDrainingCode,
                    std::string("[") + kServiceDrainingCode +
                        "] service draining; retry against another instance\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    QueryRequest qreq;
    qreq.query_text = std::move(req.body);
    if (const std::string* tenant = req.FindHeader("x-xqc-tenant")) {
      qreq.tenant = *tenant;
    }
    auto parse_int_header = [&](const char* name, int64_t* out_val) {
      const std::string* v = req.FindHeader(name);
      if (v == nullptr) return true;
      int64_t parsed;
      if (!ParseInt(*v, &parsed) || parsed < 0) return false;
      *out_val = parsed;
      return true;
    };
    int64_t deadline = 0, par = 0;
    if (!parse_int_header("x-xqc-deadline-ms", &deadline) ||
        !parse_int_header("x-xqc-parallelism", &par)) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.malformed++;
      }
      StartResponse(conn, 400, kMalformedRequestCode,
                    std::string("[") + kMalformedRequestCode +
                        "] X-XQC-* header values must be non-negative "
                        "integers\n",
                    "text/plain; charset=utf-8", close_conn);
      return;
    }
    qreq.limits.deadline_ms = deadline;
    qreq.parallelism = static_cast<int>(par);
    if (const std::string* npc = req.FindHeader("x-xqc-no-plan-cache")) {
      qreq.no_plan_cache = (*npc == "1" || ToLower(*npc) == "true");
    }
    conn->cancel = CancellationToken::Make();
    qreq.cancel = conn->cancel;
    conn->close_after_response = close_conn;
    conn->state = ConnState::kExecuting;
    conn->peeked_data = false;
    conn->phase_deadline = kNever;  // the service deadline governs
    executing_++;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.executing = executing_;
    }
    const uint64_t id = conn->id;
    qreq.on_done = [this, id](const QueryResponse& resp) {
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        completions_.push_back(Completion{id, resp});
      }
      const char c = 'W';
      [[maybe_unused]] ssize_t n = ::write(wake_w_, &c, 1);
    };
    service_->Submit(std::move(qreq));  // response arrives via on_done
    return;
  }
  StartResponse(conn, 404, "", "not found\n", "text/plain; charset=utf-8",
                close_conn);
}

std::string HttpServer::HandleInvalidate(const HttpRequest& req) {
  const std::string text(TrimXmlSpace(req.body));
  const int64_t n = (text.empty() || text == "*")
                        ? service_->InvalidateAllPlans()
                        : service_->InvalidatePlan(text);
  return "{\"invalidated\": " + std::to_string(n) + "}\n";
}

std::string HttpServer::StatsJson() {
  QueryService::Counters sc = service_->counters();
  QueryService::PlanCacheStats pc = service_->plan_cache_stats();
  Counters hc = counters();
  std::string out = "{\n";
  out += "  \"http\": {";
  out += "\"accepted\": " + std::to_string(hc.accepted);
  out += ", \"accept_faults\": " + std::to_string(hc.accept_faults);
  out += ", \"accept_paused\": " + std::to_string(hc.accept_paused);
  out += ", \"requests\": " + std::to_string(hc.requests);
  out += ", \"responses_2xx\": " + std::to_string(hc.responses_2xx);
  out += ", \"responses_4xx\": " + std::to_string(hc.responses_4xx);
  out += ", \"responses_5xx\": " + std::to_string(hc.responses_5xx);
  out += ", \"malformed\": " + std::to_string(hc.malformed);
  out += ", \"drain_refused\": " + std::to_string(hc.drain_refused);
  out += ", \"timeouts_header\": " + std::to_string(hc.timeouts_header);
  out += ", \"timeouts_body\": " + std::to_string(hc.timeouts_body);
  out += ", \"timeouts_write\": " + std::to_string(hc.timeouts_write);
  out += ", \"idle_closed\": " + std::to_string(hc.idle_closed);
  out += ", \"client_closed_early\": " +
         std::to_string(hc.client_closed_early);
  out += ", \"responses_truncated\": " +
         std::to_string(hc.responses_truncated);
  out += ", \"short_writes\": " + std::to_string(hc.short_writes);
  out += ", \"stragglers_cancelled\": " +
         std::to_string(hc.stragglers_cancelled);
  out += ", \"bytes_in\": " + std::to_string(hc.bytes_in);
  out += ", \"bytes_out\": " + std::to_string(hc.bytes_out);
  out += ", \"open_connections\": " + std::to_string(hc.open_connections);
  out += ", \"executing\": " + std::to_string(hc.executing);
  out += "},\n";
  out += "  \"service\": {";
  out += "\"submitted\": " + std::to_string(sc.submitted);
  out += ", \"completed\": " + std::to_string(sc.completed);
  out += ", \"failed\": " + std::to_string(sc.failed);
  out += ", \"rejected\": " + std::to_string(sc.rejected);
  out += ", \"retries\": " + std::to_string(sc.retries);
  out += ", \"shed_in_queue\": " + std::to_string(sc.shed_in_queue);
  out += ", \"rejected_predicted\": " + std::to_string(sc.rejected_predicted);
  out += ", \"tenant_rejected\": " + std::to_string(sc.tenant_rejected);
  out += ", \"queue_depth\": " + std::to_string(service_->queue_depth());
  out += ", \"ewma_exec_ms\": " + FormatDouble(service_->ewma_exec_ms());
  out += "},\n";
  out += "  \"plan_cache\": {";
  out += "\"hits\": " + std::to_string(pc.hits);
  out += ", \"misses\": " + std::to_string(pc.misses);
  out += ", \"compiles\": " + std::to_string(pc.compiles);
  out += ", \"evictions\": " + std::to_string(pc.evictions);
  out += ", \"negative_hits\": " + std::to_string(pc.negative_hits);
  out += ", \"invalidations\": " + std::to_string(pc.invalidations);
  out += ", \"waiters_coalesced\": " + std::to_string(pc.waiters_coalesced);
  out += ", \"entries\": " + std::to_string(pc.entries);
  out += ", \"bytes\": " + std::to_string(pc.bytes);
  out += "},\n";
  out += "  \"parallel\": {";
  out += "\"queries_split\": " + std::to_string(sc.parallel_queries_split);
  out += ", \"partitions\": " + std::to_string(sc.parallel_partitions);
  out += ", \"steals\": " + std::to_string(sc.parallel_steals);
  out += ", \"fallbacks\": " + std::to_string(sc.parallel_fallbacks);
  out += "},\n";
  out += "  \"draining\": ";
  out += draining_.load(std::memory_order_acquire) ? "true" : "false";
  out += "\n}\n";
  return out;
}

void HttpServer::StartResponse(Conn* conn, int http_status,
                               const std::string& code,
                               const std::string& body,
                               const char* content_type, bool close_conn) {
  // Crash-only drain: no keep-alive survives it. Every response written
  // while draining closes its connection, so drain completion only waits
  // on work, never on idle sockets.
  if (draining_.load(std::memory_order_acquire)) close_conn = true;
  std::string resp = "HTTP/1.1 " + std::to_string(http_status) + " " +
                     ReasonPhrase(http_status) + "\r\n";
  resp += "Content-Type: " + std::string(content_type) + "\r\n";
  resp += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!code.empty()) resp += "X-XQC-Code: " + code + "\r\n";
  resp += close_conn ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  resp += "\r\n";
  resp += body;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (http_status >= 500) counters_.responses_5xx++;
    else if (http_status >= 400) counters_.responses_4xx++;
    else counters_.responses_2xx++;
  }
  conn->out = std::move(resp);
  conn->out_off = 0;
  conn->close_after_response = close_conn;
  conn->state = ConnState::kWriting;
  conn->peeked_data = false;
  conn->phase_deadline =
      Clock::now() + std::chrono::milliseconds(options_.write_timeout_ms);
  NetFaultInjector* inj = options_.fault_injector;
  if (inj != nullptr && inj->mode == NetFaultMode::kMidResponseClose &&
      inj->Fire()) {
    // The client will see a truncated response followed by a close.
    conn->out.resize(conn->out.size() / 2);
    conn->close_after_response = true;
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.responses_truncated++;
  }
  HandleWritable(conn);  // opportunistic first write
}

void HttpServer::HandleWritable(Conn* conn) {
  NetFaultInjector* inj = options_.fault_injector;
  while (conn->out_off < conn->out.size()) {
    size_t want = conn->out.size() - conn->out_off;
    if (inj != nullptr && inj->mode == NetFaultMode::kShortWrite) {
      want = std::min<size_t>(want, 7);
      inj->ops.fetch_add(1, std::memory_order_relaxed);
    }
    if (inj != nullptr && inj->mode == NetFaultMode::kSlowClient) {
      if (conn->write_cooldown > Clock::now()) return;
      want = 1;
      inj->ops.fetch_add(1, std::memory_order_relaxed);
    }
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off, want,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.client_closed_early++;
      }
      CloseConn(conn->id);  // EPIPE / ECONNRESET
      return;
    }
    conn->out_off += static_cast<size_t>(n);
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.bytes_out += n;
      if (static_cast<size_t>(n) < want ||
          (inj != nullptr && inj->mode == NetFaultMode::kShortWrite)) {
        counters_.short_writes++;
      }
    }
    if (inj != nullptr && inj->mode == NetFaultMode::kSlowClient) {
      conn->write_cooldown =
          Clock::now() + std::chrono::milliseconds(inj->slow_write_gap_ms);
      return;
    }
  }
  // Response fully written.
  if (conn->close_after_response) {
    CloseConn(conn->id);
    return;
  }
  conn->state = ConnState::kReadingHeaders;
  conn->out.clear();
  conn->out_off = 0;
  conn->cancel = CancellationToken();
  conn->saw_request_bytes = !conn->in.empty();
  conn->phase_deadline =
      Clock::now() +
      std::chrono::milliseconds(conn->in.empty() ? options_.idle_timeout_ms
                                                 : options_.header_timeout_ms);
  if (!conn->in.empty()) AdvanceConn(conn);  // pipelined next request
}

void HttpServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second->cancel.live()) it->second->cancel.RequestCancel();
  ::close(it->second->fd);
  conns_.erase(it);
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.open_connections = static_cast<int64_t>(conns_.size());
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    executing_--;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.executing = executing_;
    }
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // client vanished; result dropped
    Conn* conn = it->second.get();
    if (conn->state != ConnState::kExecuting) continue;
    Status status = c.resp.status;
    if (!status.ok() && status.code() == kGuardCancelledCode &&
        draining_.load(std::memory_order_acquire)) {
      // The drain-grace straggler cancellation is a lifecycle event, not
      // a query error: surface it to the client as "service draining".
      status = Status::ResourceExhausted(
          kServiceDrainingCode,
          "service draining: request cancelled after the drain grace "
          "period");
    }
    const int http_status = HttpStatusForQueryStatus(status);
    std::string body =
        status.ok() ? c.resp.result : status.ToString() + "\n";
    StartResponse(it->second.get(), http_status,
                  status.ok() ? std::string() : status.code(), body,
                  "text/plain; charset=utf-8", conn->close_after_response);
  }
}

Clock::time_point HttpServer::NextDeadline() const {
  Clock::time_point next = kNever;
  for (const auto& [id, conn] : conns_) {
    if (conn->phase_deadline < next) next = conn->phase_deadline;
    if (conn->state == ConnState::kWriting &&
        conn->write_cooldown != Clock::time_point() &&
        conn->write_cooldown < next) {
      next = conn->write_cooldown;
    }
  }
  if (draining_.load(std::memory_order_acquire) && !stragglers_cancelled_ &&
      drain_started_ != Clock::time_point()) {
    Clock::time_point grace =
        drain_started_ + std::chrono::milliseconds(options_.drain_grace_ms);
    if (grace < next) next = grace;
  }
  return next;
}

void HttpServer::EnforceTimeouts() {
  const Clock::time_point now = Clock::now();
  std::vector<uint64_t> doomed;
  for (auto& [id, conn] : conns_) {
    if (conn->phase_deadline == kNever || now < conn->phase_deadline) {
      continue;
    }
    doomed.push_back(id);
  }
  for (uint64_t id : doomed) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    switch (conn->state) {
      case ConnState::kReadingHeaders:
        if (conn->saw_request_bytes) {
          {
            std::lock_guard<std::mutex> lock(counters_mu_);
            counters_.timeouts_header++;
          }
          // Best-effort 408: one nonblocking write, then the close. A
          // slowloris peer may never read it; that's its problem.
          const char kTimeout[] =
              "HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n"
              "Connection: close\r\n\r\n";
          [[maybe_unused]] ssize_t n =
              ::send(conn->fd, kTimeout, sizeof(kTimeout) - 1, MSG_NOSIGNAL);
        } else {
          std::lock_guard<std::mutex> lock(counters_mu_);
          counters_.idle_closed++;
        }
        break;
      case ConnState::kReadingBody: {
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          counters_.timeouts_body++;
        }
        const char kTimeout[] =
            "HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n"
            "Connection: close\r\n\r\n";
        [[maybe_unused]] ssize_t n =
            ::send(conn->fd, kTimeout, sizeof(kTimeout) - 1, MSG_NOSIGNAL);
        break;
      }
      case ConnState::kWriting: {
        std::lock_guard<std::mutex> lock(counters_mu_);
        counters_.timeouts_write++;
        break;
      }
      case ConnState::kExecuting:
        break;  // kNever; unreachable
    }
    CloseConn(id);
  }
  // Drain grace expired: cancel executing stragglers (their completions
  // will surface as XQC0012), and shed connections still reading — they
  // have nothing admitted, and waiting out a 10s body timeout would hold
  // the whole drain hostage.
  if (draining_.load(std::memory_order_acquire) && !stragglers_cancelled_ &&
      drain_started_ != Clock::time_point() &&
      now >= drain_started_ +
                 std::chrono::milliseconds(options_.drain_grace_ms)) {
    stragglers_cancelled_ = true;
    std::vector<uint64_t> readers;
    int64_t cancelled = 0;
    for (auto& [id, conn] : conns_) {
      if (conn->state == ConnState::kExecuting && conn->cancel.live()) {
        conn->cancel.RequestCancel();
        cancelled++;
      } else if (conn->state == ConnState::kReadingHeaders ||
                 conn->state == ConnState::kReadingBody) {
        readers.push_back(id);
      }
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      counters_.stragglers_cancelled += cancelled;
    }
    for (uint64_t id : readers) CloseConn(id);
  }
}

void HttpServer::CheckDrained() {
  if (!draining_.load(std::memory_order_acquire)) return;
  bool completions_pending;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_pending = !completions_.empty();
  }
  if (conns_.empty() && executing_ == 0 && !completions_pending) {
    std::lock_guard<std::mutex> lock(drained_mu_);
    fully_drained_ = true;
    drained_cv_.notify_all();
  }
}

}  // namespace xqc
