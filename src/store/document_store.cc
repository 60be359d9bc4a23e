#include "src/store/document_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/strutil.h"
#include "src/store/snapshot.h"
#include "src/xml/xml_parser.h"

namespace xqc {

namespace {

/// Seed of the retry-backoff jitter stream (fixed, so a run's backoffs
/// are reproducible).
constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

/// Whether an errno from open/read is worth retrying. Everything else
/// (ENOENT, ENOTDIR, EACCES, EISDIR, ...) is a permanent verdict for the
/// current file state and is negative-cached instead.
bool ErrnoIsTransient(int e) {
  return e == EINTR || e == EAGAIN || e == EWOULDBLOCK || e == EIO ||
         e == EMFILE || e == ENFILE || e == ENOMEM || e == EBUSY;
}

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Plain whole-file read for content rechecks (no fault injection: the
/// injected source faults target the load path, and a failed recheck read
/// already degrades into that path).
bool ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat sb;
  if (::fstat(fd, &sb) != 0 || !S_ISREG(sb.st_mode)) {
    ::close(fd);
    return false;
  }
  out->resize(static_cast<size_t>(sb.st_size));
  size_t off = 0;
  while (off < out->size()) {
    ssize_t n = ::read(fd, out->data() + off, out->size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(off);
  return true;
}

/// Minimal '*' glob over one path segment ('*' matches any run of
/// characters, including none; no other metacharacters).
bool GlobMatch(const char* pattern, const char* s) {
  const char* star = nullptr;
  const char* backtrack = nullptr;
  while (*s != '\0') {
    if (*pattern == *s) {
      pattern++;
      s++;
    } else if (*pattern == '*') {
      star = pattern++;
      backtrack = s;
    } else if (star != nullptr) {
      pattern = star + 1;
      s = ++backtrack;
    } else {
      return false;
    }
  }
  while (*pattern == '*') pattern++;
  return *pattern == '\0';
}

}  // namespace

Result<std::vector<std::string>> ListCollectionMembers(
    const std::string& raw_uri) {
  const std::string uri = NormalizeDocUri(raw_uri);
  if (uri.empty()) {
    return Status::IOError("fn:collection: no default collection is defined");
  }
  if (uri.find("://") != std::string::npos) {
    return Status::IOError("cannot resolve collection URI '" + uri +
                           "': unsupported scheme");
  }
  // A '*' in the last path segment is a basename glob; otherwise the URI
  // must name a directory, whose "*.xml" entries are the members.
  std::string dir = uri;
  std::string pattern;
  const size_t slash = uri.rfind('/');
  const std::string base =
      slash == std::string::npos ? uri : uri.substr(slash + 1);
  if (base.find('*') != std::string::npos) {
    pattern = base;
    if (slash == std::string::npos) {
      dir = ".";
    } else {
      dir = slash == 0 ? "/" : uri.substr(0, slash);
    }
  } else {
    struct stat sb;
    if (::stat(uri.c_str(), &sb) != 0) {
      return Status::IOError("cannot resolve collection URI '" + uri +
                             "': " + std::strerror(errno));
    }
    if (S_ISREG(sb.st_mode)) {
      return Status::WithCode(
          StatusKind::kXQueryError, "FODC0004",
          "invalid collection URI '" + uri +
              "': names a document, not a collection (use fn:doc, or a "
              "directory / '*' glob)");
    }
    if (!S_ISDIR(sb.st_mode)) {
      return Status::IOError("cannot resolve collection URI '" + uri +
                             "': not a directory");
    }
    pattern = "*.xml";
  }

  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot enumerate collection '" + uri +
                           "': " + std::strerror(errno));
  }
  std::vector<std::string> members;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    if (!GlobMatch(pattern.c_str(), name.c_str())) continue;
    const std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    struct stat sb;
    if (::stat(path.c_str(), &sb) != 0 || !S_ISREG(sb.st_mode)) continue;
    members.push_back(NormalizeDocUri(path));
  }
  ::closedir(d);
  // Sorted member URIs define the collection's stable ordinal order: the
  // cross-document order every execution (serial or parallel, warm or cold
  // cache) must agree on. readdir order is filesystem-dependent, so sort.
  std::sort(members.begin(), members.end());
  return members;
}

Result<std::vector<std::string>> DocumentStore::ListCollection(
    const std::string& uri, DocStoreStats* stats) {
  IoFaultInjector* inj = fault_injector_.load(std::memory_order_acquire);
  if (inj != nullptr && inj->mode == IoFaultMode::kFailOpen) {
    const int64_t attempt_no =
        inj->attempts.fetch_add(1, std::memory_order_relaxed) + 1;
    if (inj->fail_n <= 0 || attempt_no <= inj->fail_n) {
      // Enumeration is not retried (there is no partial progress to
      // protect), so an injected open failure surfaces directly as the
      // unresolvable-collection verdict.
      return Status::IOError("injected open failure enumerating collection '" +
                             uri + "'");
    }
  }
  Result<std::vector<std::string>> r = ListCollectionMembers(uri);
  if (r.ok()) {
    Bump(stats, &DocStoreStats::collections_resolved);
    CountGlobal(&DocStoreStats::collections_resolved);
  }
  return r;
}

std::string NormalizeDocUri(const std::string& raw_uri) {
  std::string uri = raw_uri;
  if (uri.rfind("file:", 0) == 0) {
    // A file: URI names a local path: strip the scheme (accepting an empty
    // or "localhost" authority) and percent-decode, so "file:///a%20b.xml"
    // and "/a b.xml" land on one cache entry instead of aliasing.
    std::string rest = uri.substr(5);
    if (rest.rfind("//", 0) == 0) {
      size_t slash = rest.find('/', 2);
      if (slash == std::string::npos) return raw_uri;
      std::string authority = rest.substr(2, slash - 2);
      if (!authority.empty() && authority != "localhost") return raw_uri;
      rest = rest.substr(slash);
    }
    uri = PercentDecode(rest);
  }
  if (uri.empty() || uri.find("://") != std::string::npos) return uri;
  const bool absolute = uri[0] == '/';
  std::vector<std::string> parts;
  size_t i = 0;
  while (i <= uri.size()) {
    size_t j = uri.find('/', i);
    if (j == std::string::npos) j = uri.size();
    std::string seg = uri.substr(i, j - i);
    i = j + 1;
    if (seg.empty() || seg == ".") continue;
    if (seg == "..") {
      if (!parts.empty() && parts.back() != "..") {
        parts.pop_back();
      } else if (!absolute) {
        // A relative path may legitimately start above its base directory.
        parts.push_back("..");
      }
      // Absolute paths can't climb above "/": drop the segment.
      continue;
    }
    parts.push_back(std::move(seg));
  }
  std::string out;
  if (absolute) out += '/';
  for (size_t k = 0; k < parts.size(); ++k) {
    if (k > 0) out += '/';
    out += parts[k];
  }
  if (out.empty()) out = absolute ? "/" : ".";
  return out;
}

DocumentStore::DocumentStore(DocumentStoreOptions options)
    : options_(options),
      max_bytes_(options.max_bytes),
      breaker_threshold_(options.breaker_threshold),
      brownout_(options.brownout),
      jitter_state_(kJitterSeed) {
  if (!options.snapshot_dir.empty()) set_snapshot_dir(options.snapshot_dir);
}

DocumentStore::~DocumentStore() = default;

DocumentStore* DocumentStore::Global() {
  // Leaked deliberately: documents may be referenced by results that
  // outlive static destruction order.
  static DocumentStore* g = new DocumentStore();
  return g;
}

bool DocumentStore::StatFile(const std::string& path, Fingerprint* fp) {
  struct stat sb;
  if (::stat(path.c_str(), &sb) != 0 || !S_ISREG(sb.st_mode)) return false;
  fp->inode = static_cast<uint64_t>(sb.st_ino);
  fp->size = static_cast<int64_t>(sb.st_size);
  fp->mtime_sec = static_cast<int64_t>(sb.st_mtim.tv_sec);
  fp->mtime_nsec = static_cast<int64_t>(sb.st_mtim.tv_nsec);
  return true;
}

uint64_t DocumentStore::NextRand() {
  // splitmix64 over an atomically advanced state: contention-free and
  // deterministic for a fixed seed and call order.
  uint64_t x = jitter_state_.fetch_add(0x9e3779b97f4a7c15ull,
                                       std::memory_order_relaxed);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void DocumentStore::CountGlobal(int64_t DocStoreStats::*field, int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.*field += n;
}

Result<NodePtr> DocumentStore::Load(const std::string& raw_uri,
                                    const LoadOptions& opts) {
  const std::string uri = NormalizeDocUri(raw_uri);
  QueryGuard* guard = opts.guard != nullptr ? opts.guard : UnlimitedGuard();
  if (opts.performed_parse != nullptr) *opts.performed_parse = false;

  for (;;) {
    std::shared_ptr<InFlight> slot;
    bool leader = false;
    bool probe = false;  // this load is the breaker's single half-open probe
    NodePtr recheck_doc;       // fingerprint-valid hit inside the recheck
    uint64_t recheck_hash = 0; // window: verify content outside the lock
    bool breaker_failed = false;
    Status breaker_status;
    std::string disk_brownout_path;  // breaker open: try the snapshot tier
    {
      std::unique_lock<std::mutex> lock(mu_);

      auto q = quarantine_.find(uri);
      if (q != quarantine_.end()) {
        Fingerprint fp;
        if (StatFile(uri, &fp) && fp == q->second.fp) {
          totals_.quarantine_hits++;
          Bump(opts.stats, &DocStoreStats::quarantine_hits);
          return Status::WithCode(
              q->second.status.kind(), kStoreQuarantinedCode,
              "quarantined document '" + uri +
                  "' (invalidate or fix the file to retry): " +
                  q->second.status.ToString());
        }
        // The file changed (or vanished): the cached verdict is stale.
        quarantine_.erase(q);
      }

      auto neg = negative_.find(uri);
      if (neg != negative_.end()) {
        if (std::chrono::steady_clock::now() < neg->second.expires) {
          totals_.negative_hits++;
          Bump(opts.stats, &DocStoreStats::negative_hits);
          return neg->second.status;
        }
        negative_.erase(neg);
      }

      auto c = cache_.find(uri);
      bool have_stale = false;
      if (c != cache_.end()) {
        Fingerprint fp;
        if (!opts.force_fresh && StatFile(uri, &fp) && fp == c->second->fp) {
          const int64_t window = options_.content_recheck_window_ms;
          if (window > 0 &&
              std::chrono::steady_clock::now() - c->second->loaded_at <
                  std::chrono::milliseconds(window)) {
            // The entry is young enough that a same-size rewrite could be
            // hiding inside the mtime granularity: verify the content hash
            // outside the lock before serving.
            recheck_doc = c->second->doc;
            recheck_hash = c->second->content_hash;
          } else {
            lru_.splice(lru_.begin(), lru_, c->second);
            totals_.hits++;
            Bump(opts.stats, &DocStoreStats::hits);
            return c->second->doc;
          }
        }
        // Stale (or currently unstattable). Deferred-dropped below: if the
        // prefix's breaker is open and brownout is on, this is exactly the
        // tree we degrade onto instead of failing.
        have_stale = true;
      }

      auto f = recheck_doc != nullptr ? inflight_.end() : inflight_.find(uri);
      if (recheck_doc != nullptr) {
        // Fall through to the unlocked recheck below.
      } else if (f != inflight_.end()) {
        // Another query is already performing this load; joining its wait
        // causes no new I/O, so the breaker is not consulted.
        slot = f->second;
      } else {
        switch (BreakerAdmitLocked(BreakerPrefix(uri))) {
          case BreakerVerdict::kOpen:
            if (brownout_.load(std::memory_order_relaxed) && have_stale) {
              lru_.splice(lru_.begin(), lru_, c->second);
              totals_.brownout_serves++;
              Bump(opts.stats, &DocStoreStats::brownout_serves);
              return c->second->doc;
            }
            // No stale tree in memory. The disk tier may still hold a
            // rebuildable snapshot — attempted outside the lock.
            if (brownout_.load(std::memory_order_relaxed) &&
                opts.use_snapshots && !snapshot_dir_.empty()) {
              disk_brownout_path = snapshot_dir_ + "/" + SnapshotFileName(uri);
            }
            breaker_failed = true;
            breaker_status = Status::WithCode(
                StatusKind::kIOError, kStoreBreakerOpenCode,
                "circuit breaker open for '" + BreakerPrefix(uri) +
                    "': repeated transient I/O failures; load of '" + uri +
                    "' failed fast (retrying after the cooldown)");
            break;
          case BreakerVerdict::kProbe:
            probe = true;
            break;
          case BreakerVerdict::kProceed:
            break;
        }
        if (!breaker_failed) {
          if (have_stale) {
            // Now really drop the stale entry; the fresh load swaps the new
            // tree in atomically. Holders of the old tree keep a consistent
            // snapshot via shared ownership. A force_fresh drop is counted
            // by the caller (collection_reorders), not as a staleness event.
            if (!opts.force_fresh) {
              totals_.stale_reloads++;
              Bump(opts.stats, &DocStoreStats::stale_reloads);
            }
            bytes_cached_ -= c->second->bytes;
            lru_.erase(c->second);
            cache_.erase(c);
          }
          slot = std::make_shared<InFlight>();
          inflight_[uri] = slot;
          leader = true;
        }
      }
    }

    if (recheck_doc != nullptr) {
      // Hash the file's current bytes against the entry's content hash.
      // A read failure is treated as a mismatch: drop the entry and take
      // the full (retry/breaker-aware) load path.
      Bump(opts.stats, &DocStoreStats::content_rechecks);
      CountGlobal(&DocStoreStats::content_rechecks);
      bool match = false;
      {
        std::string bytes;
        if (ReadWholeFile(uri, &bytes)) match = Hash64(bytes) == recheck_hash;
      }
      std::unique_lock<std::mutex> lock(mu_);
      auto c = cache_.find(uri);
      const bool same_entry =
          c != cache_.end() && c->second->doc == recheck_doc;
      if (match) {
        if (same_entry) lru_.splice(lru_.begin(), lru_, c->second);
        totals_.hits++;
        Bump(opts.stats, &DocStoreStats::hits);
        return recheck_doc;
      }
      if (same_entry) {
        totals_.stale_reloads++;
        Bump(opts.stats, &DocStoreStats::stale_reloads);
        bytes_cached_ -= c->second->bytes;
        lru_.erase(c->second);
        cache_.erase(c);
      }
      continue;  // reload from scratch
    }

    if (breaker_failed) {
      if (!disk_brownout_path.empty()) {
        SnapshotLoadResult r = LoadSnapshot(
            disk_brownout_path, /*expect=*/nullptr, guard,
            fault_injector_.load(std::memory_order_acquire));
        if (r.outcome == SnapshotLoadOutcome::kLoaded) {
          Bump(opts.stats, &DocStoreStats::snapshot_brownout_serves);
          CountGlobal(&DocStoreStats::snapshot_brownout_serves);
          Bump(opts.stats, &DocStoreStats::snapshot_bytes_read, r.bytes_read);
          CountGlobal(&DocStoreStats::snapshot_bytes_read, r.bytes_read);
          return r.doc;  // served uncached: freshness is unknowable here
        }
        if (r.outcome == SnapshotLoadOutcome::kGuardTrip) return r.status;
      }
      Bump(opts.stats, &DocStoreStats::breaker_fast_fails);
      CountGlobal(&DocStoreStats::breaker_fast_fails);
      return breaker_status;
    }

    if (leader) {
      bool leader_trip = false;
      Result<NodePtr> result = LoadAsLeader(uri, guard, opts.stats,
                                            &leader_trip, probe,
                                            opts.use_snapshots);
      {
        std::lock_guard<std::mutex> sl(slot->mu);
        slot->done = true;
        slot->leader_trip = leader_trip;
        if (result.ok()) {
          slot->doc = result.value();
        } else {
          slot->status = result.status();
        }
      }
      slot->cv.notify_all();
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto f = inflight_.find(uri);
        if (f != inflight_.end() && f->second == slot) inflight_.erase(f);
      }
      if (result.ok() && opts.performed_parse != nullptr) {
        *opts.performed_parse = true;
      }
      return result;
    }

    // Waiter: block in short slices so our own deadline/cancellation is
    // honored while the leader works. Abandoning the wait (by returning)
    // is safe — the slot is jointly owned and the leader completes it.
    Bump(opts.stats, &DocStoreStats::singleflight_waits);
    CountGlobal(&DocStoreStats::singleflight_waits);
    bool retry = false;
    {
      std::unique_lock<std::mutex> sl(slot->mu);
      while (!slot->done) {
        XQC_RETURN_IF_ERROR(guard->CheckNow());
        slot->cv.wait_for(sl, std::chrono::milliseconds(1));
      }
      if (slot->doc != nullptr) return slot->doc;
      if (!slot->leader_trip) return slot->status;
      // The leader failed on its *own* guard (deadline/cancel mid-parse).
      // That verdict isn't ours to inherit: loop and retry, possibly
      // becoming the new leader.
      retry = true;
    }
    (void)retry;
  }
}

Result<NodePtr> DocumentStore::LoadAsLeader(const std::string& uri,
                                            QueryGuard* guard,
                                            DocStoreStats* stats,
                                            bool* leader_trip, bool probe,
                                            bool use_snapshots) {
  Bump(stats, &DocStoreStats::misses);
  CountGlobal(&DocStoreStats::misses);
  const std::string prefix = BreakerPrefix(uri);

  ReadOutcome out;
  for (int attempt = 0;; ++attempt) {
    out = ReadFile(uri, guard);
    if (out.status.ok()) break;
    if (out.status.kind() == StatusKind::kResourceExhausted) {
      *leader_trip = true;
      if (probe) BreakerRecordAbort(prefix);
      return out.status;
    }
    if (!out.transient) {
      // A definitive filesystem answer (ENOENT, EACCES, ...): the I/O tier
      // responded, so it counts as breaker success even though the load
      // fails and is negative-cached.
      BreakerRecordSuccess(prefix);
      Status st = out.status;
      std::lock_guard<std::mutex> lock(mu_);
      negative_[uri] = Negative{
          st, std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.negative_ttl_ms)};
      return st;
    }
    BreakerRecordFailure(prefix);
    if (attempt >= options_.max_retries) {
      return Status::WithCode(
          StatusKind::kIOError, kStoreRetriesExhaustedCode,
          "transient I/O failure persisted through " +
              std::to_string(attempt + 1) + " attempts for '" + uri +
              "': " + out.status.message());
    }
    Bump(stats, &DocStoreStats::retries);
    CountGlobal(&DocStoreStats::retries);
    // Jittered exponential backoff in [b, 2b) with b = base << attempt,
    // bounded by the caller's remaining deadline, slept in 1ms slices so
    // cancellation still lands promptly.
    int64_t base = std::max<int64_t>(options_.retry_backoff_ms, 1) << attempt;
    int64_t wait = base + static_cast<int64_t>(
                              NextRand() % static_cast<uint64_t>(base));
    int64_t remaining = guard->remaining_deadline_ms();
    if (remaining >= 0) wait = std::min(wait, remaining);
    for (int64_t slept = 0; slept < wait; ++slept) {
      Status st = guard->CheckNow();
      if (!st.ok()) {
        *leader_trip = true;
        if (probe) BreakerRecordAbort(prefix);
        return st;
      }
      SleepMs(1);
    }
    Status st = guard->CheckNow();
    if (!st.ok()) {
      *leader_trip = true;
      if (probe) BreakerRecordAbort(prefix);
      return st;
    }
  }

  // The read completed: the I/O tier is healthy for this prefix (closes a
  // half-open breaker, resets the consecutive-failure count).
  BreakerRecordSuccess(prefix);

  // --- Disk tier: a valid snapshot of exactly these source bytes skips
  // --- the parse. Any invalid snapshot is quarantined and we fall through
  // --- to the reparse — never to a failure.
  const uint64_t content_hash = Hash64(out.content);
  const std::string snap_path =
      use_snapshots ? SnapshotPathFor(uri) : std::string();
  IoFaultInjector* inj = fault_injector_.load(std::memory_order_acquire);
  bool have_snapshot = false;
  NodePtr doc;
  if (!snap_path.empty()) {
    SnapshotSource src{uri, content_hash,
                       static_cast<int64_t>(out.content.size())};
    SnapshotLoadResult r = LoadSnapshot(snap_path, &src, guard, inj);
    if (r.bytes_read > 0) {
      Bump(stats, &DocStoreStats::snapshot_bytes_read, r.bytes_read);
      CountGlobal(&DocStoreStats::snapshot_bytes_read, r.bytes_read);
    }
    switch (r.outcome) {
      case SnapshotLoadOutcome::kLoaded:
        Bump(stats, &DocStoreStats::snapshot_hits);
        CountGlobal(&DocStoreStats::snapshot_hits);
        doc = std::move(r.doc);
        have_snapshot = true;
        break;
      case SnapshotLoadOutcome::kGuardTrip:
        // The caller's own budget tripped mid-rebuild: per-query verdict,
        // exactly like a mid-parse trip. The snapshot itself is fine.
        *leader_trip = true;
        return r.status;
      case SnapshotLoadOutcome::kMissing:
      case SnapshotLoadOutcome::kIoError:
        break;  // plain miss: parse and (re)write below
      case SnapshotLoadOutcome::kStale:
      case SnapshotLoadOutcome::kVersionSkew:
      case SnapshotLoadOutcome::kCorrupt: {
        QuarantineSnapshotFile(snap_path);
        Bump(stats, &DocStoreStats::snapshot_quarantines);
        CountGlobal(&DocStoreStats::snapshot_quarantines);
        if (r.outcome == SnapshotLoadOutcome::kStale) {
          Bump(stats, &DocStoreStats::snapshot_stale);
          CountGlobal(&DocStoreStats::snapshot_stale);
        }
        std::cerr << "xqc: quarantined snapshot '" << snap_path << "' ("
                  << r.detail << "); reparsing '" << uri << "'\n";
        break;
      }
    }
  }

  if (!have_snapshot) {
    XmlParseOptions popts;
    popts.guard = guard;
    Result<NodePtr> parsed = ParseXml(out.content, popts);
    if (!parsed.ok()) {
      if (parsed.status().kind() == StatusKind::kResourceExhausted) {
        // The caller's budget tripped mid-parse: a per-query verdict, never
        // cached and never shared with waiters.
        *leader_trip = true;
        return parsed.status();
      }
      // Poisoned document: cache the verdict against the file's fingerprint
      // so replays cost a stat, not a parse. The first loader sees the
      // original error; replays are marked XQC0009.
      {
        std::lock_guard<std::mutex> lock(mu_);
        quarantine_[uri] = Quarantined{parsed.status(), out.fp};
      }
      return parsed.status();
    }
    doc = parsed.take();
    if (!snap_path.empty()) {
      // Publish the freshly parsed tree for the next cold start. A failed
      // publish never affects the load (the tree is already in hand).
      SnapshotSource src{uri, content_hash,
                         static_cast<int64_t>(out.content.size())};
      int64_t written = 0;
      Status ws = WriteSnapshot(snap_path, *doc, src, inj, &written);
      if (ws.ok()) {
        Bump(stats, &DocStoreStats::snapshot_writes);
        CountGlobal(&DocStoreStats::snapshot_writes);
        Bump(stats, &DocStoreStats::snapshot_bytes_written, written);
        CountGlobal(&DocStoreStats::snapshot_bytes_written, written);
      } else {
        Bump(stats, &DocStoreStats::snapshot_write_failures);
        CountGlobal(&DocStoreStats::snapshot_write_failures);
        std::cerr << "xqc: snapshot publish failed (load unaffected): "
                  << ws.ToString() << "\n";
      }
    }
  }

  int64_t bytes = static_cast<int64_t>(out.content.size()) +
                  static_cast<int64_t>(doc->SubtreeSize()) *
                      QueryGuard::kNodeCost;
  if (bytes > max_bytes_.load(std::memory_order_relaxed)) {
    // Larger than the whole budget: serve uncached. The parse was already
    // charged to the requesting query's guard by the parser.
    Bump(stats, &DocStoreStats::uncached_oversize);
    CountGlobal(&DocStoreStats::uncached_oversize);
  } else {
    InsertCached(uri, doc, static_cast<int64_t>(out.content.size()), out.fp,
                 content_hash, stats);
  }
  return doc;
}

DocumentStore::ReadOutcome DocumentStore::ReadFile(const std::string& uri,
                                                   QueryGuard* guard) {
  ReadOutcome out;
  IoFaultInjector* inj = fault_injector_.load(std::memory_order_acquire);
  int64_t attempt_no = 0;
  if (inj != nullptr) {
    attempt_no = inj->attempts.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  if (inj != nullptr && inj->mode == IoFaultMode::kFailOpen &&
      (inj->fail_n <= 0 || attempt_no <= inj->fail_n)) {
    out.transient = inj->transient;
    out.status = Status::IOError(
        std::string("injected ") +
        (inj->transient ? "transient" : "permanent") +
        " open failure for document '" + uri + "'");
    return out;
  }
  if (inj != nullptr && inj->mode == IoFaultMode::kFlakyThenSucceed &&
      attempt_no <= inj->fail_n) {
    out.transient = true;
    out.status = Status::IOError("injected flaky read failure for document '" +
                                 uri + "' (attempt " +
                                 std::to_string(attempt_no) + ")");
    return out;
  }

  int fd = ::open(uri.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    int e = errno;
    out.transient = ErrnoIsTransient(e);
    out.status = Status::IOError("cannot open document '" + uri +
                                 "': " + std::strerror(e));
    return out;
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0 || !S_ISREG(sb.st_mode)) {
    ::close(fd);
    out.status =
        Status::IOError("document '" + uri + "' is not a regular file");
    return out;
  }
  out.fp.inode = static_cast<uint64_t>(sb.st_ino);
  out.fp.size = static_cast<int64_t>(sb.st_size);
  out.fp.mtime_sec = static_cast<int64_t>(sb.st_mtim.tv_sec);
  out.fp.mtime_nsec = static_cast<int64_t>(sb.st_mtim.tv_nsec);

  if (inj != nullptr && inj->mode == IoFaultMode::kSlowRead) {
    // A crawling device: let the caller's deadline/cancellation trip
    // mid-load, deterministically.
    for (int64_t i = 0; i < inj->delay_ms; ++i) {
      Status st = guard->CheckNow();
      if (!st.ok()) {
        ::close(fd);
        out.status = st;
        return out;
      }
      SleepMs(1);
    }
  }

  std::string content(static_cast<size_t>(sb.st_size), '\0');
  size_t off = 0;
  while (off < content.size()) {
    ssize_t n = ::read(fd, &content[off], content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int e = errno;
      ::close(fd);
      out.transient = ErrnoIsTransient(e);
      out.status = Status::IOError("error reading document '" + uri +
                                   "': " + std::strerror(e));
      return out;
    }
    if (n == 0) break;  // truncated since fstat; parse what we have
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  content.resize(off);

  if (inj != nullptr && inj->mode == IoFaultMode::kShortRead) {
    content.resize(content.size() / 2);
  }

  out.content = std::move(content);
  out.status = Status::OK();
  return out;
}

void DocumentStore::InsertCached(const std::string& uri, const NodePtr& doc,
                                 int64_t content_bytes, const Fingerprint& fp,
                                 uint64_t content_hash, DocStoreStats* stats) {
  int64_t bytes = content_bytes + static_cast<int64_t>(doc->SubtreeSize()) *
                                      QueryGuard::kNodeCost;
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = cache_.find(uri);
  if (existing != cache_.end()) {
    bytes_cached_ -= existing->second->bytes;
    lru_.erase(existing->second);
    cache_.erase(existing);
  }
  lru_.push_front(CacheEntry{uri, doc, bytes, fp, content_hash,
                             std::chrono::steady_clock::now()});
  cache_[uri] = lru_.begin();
  bytes_cached_ += bytes;
  EvictToBudgetLocked(stats);
}

void DocumentStore::EvictToBudgetLocked(DocStoreStats* stats) {
  const int64_t budget = max_bytes_.load(std::memory_order_relaxed);
  while (bytes_cached_ > budget && !lru_.empty()) {
    CacheEntry& victim = lru_.back();
    bytes_cached_ -= victim.bytes;
    cache_.erase(victim.uri);
    lru_.pop_back();
    totals_.evictions++;
    Bump(stats, &DocStoreStats::evictions);
  }
}

bool DocumentStore::Invalidate(const std::string& raw_uri) {
  const std::string uri = NormalizeDocUri(raw_uri);
  bool dropped = false;
  std::string snap_path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto c = cache_.find(uri);
    if (c != cache_.end()) {
      bytes_cached_ -= c->second->bytes;
      lru_.erase(c->second);
      cache_.erase(c);
      dropped = true;
    }
    dropped |= quarantine_.erase(uri) > 0;
    dropped |= negative_.erase(uri) > 0;
    if (!snapshot_dir_.empty()) {
      snap_path = snapshot_dir_ + "/" + SnapshotFileName(uri);
    }
  }
  if (!snap_path.empty()) {
    dropped |= ::unlink(snap_path.c_str()) == 0;
    dropped |= ::unlink((snap_path + ".corrupt").c_str()) == 0;
  }
  return dropped;
}

void DocumentStore::InvalidateAll() {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    cache_.clear();
    quarantine_.clear();
    negative_.clear();
    breakers_.clear();
    bytes_cached_ = 0;
    dir = snapshot_dir_;
  }
  if (dir.empty()) return;
  // Remove every snapshot artifact (published, quarantined, orphan temp).
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.find(".xqsnap") == std::string::npos) continue;
    ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
}

void DocumentStore::DropMemoryCache() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  cache_.clear();
  bytes_cached_ = 0;
}

void DocumentStore::set_snapshot_dir(const std::string& dir) {
  if (!dir.empty()) {
    ::mkdir(dir.c_str(), 0755);  // one level, best-effort
    int swept = SweepOrphanSnapshotTmps(dir);
    if (swept > 0) {
      std::cerr << "xqc: swept " << swept
                << " orphaned snapshot temp file(s) from '" << dir << "'\n";
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_dir_ = dir;
}

std::string DocumentStore::snapshot_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_dir_;
}

std::string DocumentStore::SnapshotPathFor(const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_dir_.empty()) return std::string();
  return snapshot_dir_ + "/" + SnapshotFileName(uri);
}

void DocumentStore::set_max_bytes(int64_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  EvictToBudgetLocked(nullptr);
}

void DocumentStore::set_breaker_threshold(int threshold) {
  breaker_threshold_.store(threshold, std::memory_order_relaxed);
  if (threshold <= 0) {
    std::lock_guard<std::mutex> lock(mu_);
    breakers_.clear();
  }
}

void DocumentStore::set_brownout(bool brownout) {
  brownout_.store(brownout, std::memory_order_relaxed);
}

std::string DocumentStore::BreakerPrefix(const std::string& uri) {
  size_t slash = uri.rfind('/');
  return slash == std::string::npos ? std::string() : uri.substr(0, slash);
}

DocumentStore::BreakerVerdict DocumentStore::BreakerAdmitLocked(
    const std::string& prefix) {
  if (breaker_threshold_.load(std::memory_order_relaxed) <= 0) {
    return BreakerVerdict::kProceed;
  }
  auto it = breakers_.find(prefix);
  if (it == breakers_.end()) return BreakerVerdict::kProceed;
  Breaker& b = it->second;
  switch (b.state) {
    case Breaker::State::kClosed:
      return BreakerVerdict::kProceed;
    case Breaker::State::kOpen:
      if (std::chrono::steady_clock::now() - b.opened_at >=
          std::chrono::milliseconds(options_.breaker_cooldown_ms)) {
        b.state = Breaker::State::kHalfOpen;
        b.probe_in_flight = true;
        breaker_half_opens_++;
        return BreakerVerdict::kProbe;
      }
      return BreakerVerdict::kOpen;
    case Breaker::State::kHalfOpen:
      // The single probe is already out; everyone else still fails fast.
      return BreakerVerdict::kOpen;
  }
  return BreakerVerdict::kProceed;  // unreachable
}

void DocumentStore::BreakerRecordFailure(const std::string& prefix) {
  const int threshold = breaker_threshold_.load(std::memory_order_relaxed);
  if (threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Breaker& b = breakers_[prefix];
  b.consecutive_failures++;
  if (b.state == Breaker::State::kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarted.
    b.state = Breaker::State::kOpen;
    b.opened_at = std::chrono::steady_clock::now();
    b.probe_in_flight = false;
    breaker_opens_++;
  } else if (b.state == Breaker::State::kClosed &&
             b.consecutive_failures >= threshold) {
    b.state = Breaker::State::kOpen;
    b.opened_at = std::chrono::steady_clock::now();
    breaker_opens_++;
  }
}

void DocumentStore::BreakerRecordSuccess(const std::string& prefix) {
  if (breaker_threshold_.load(std::memory_order_relaxed) <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(prefix);
  if (it == breakers_.end()) return;
  Breaker& b = it->second;
  b.consecutive_failures = 0;
  if (b.state == Breaker::State::kHalfOpen) {
    b.state = Breaker::State::kClosed;
    b.probe_in_flight = false;
    breaker_closes_++;
  }
  // kOpen stays open: in-progress loads admitted before the breaker opened
  // don't close it — the half-open probe is the designated recovery test.
}

void DocumentStore::BreakerRecordAbort(const std::string& prefix) {
  if (breaker_threshold_.load(std::memory_order_relaxed) <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(prefix);
  if (it == breakers_.end()) return;
  Breaker& b = it->second;
  if (b.state == Breaker::State::kHalfOpen) {
    // The probe died on its caller's guard, proving nothing about the I/O
    // tier. Re-open with the original opened_at so the next caller may
    // probe immediately.
    b.state = Breaker::State::kOpen;
    b.probe_in_flight = false;
  }
}

DocumentStore::Counters DocumentStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c;
  c.totals = totals_;
  c.bytes_cached = bytes_cached_;
  c.entries = static_cast<int64_t>(cache_.size());
  c.quarantined = static_cast<int64_t>(quarantine_.size());
  c.breaker_opens = breaker_opens_;
  c.breaker_half_opens = breaker_half_opens_;
  c.breaker_closes = breaker_closes_;
  for (const auto& [prefix, b] : breakers_) {
    if (b.state != Breaker::State::kClosed) c.breakers_open++;
  }
  return c;
}

}  // namespace xqc
