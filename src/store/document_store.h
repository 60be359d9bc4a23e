// DocumentStore: the fault-tolerant shared home of parsed documents.
//
// The paper's Parse operator is the boundary where the engine meets the
// outside world; this layer makes every failure mode at that boundary
// explicit and cheap, so fn:doc under heavy concurrent traffic behaves
// like managed storage instead of a per-query side effect:
//
//   * Bounded caching. Parsed+finalized trees live in a memory-accounted
//     LRU keyed by *normalized* URI (NormalizeDocUri) under a configurable
//     byte budget. A document larger than the whole budget degrades
//     gracefully: it is served as an uncached parse charged to the
//     requesting query's own guard, never a failure.
//   * Singleflight loading. Concurrent loads of one URI share a single
//     parse. Waiters honor their own deadlines/cancellation tokens (each
//     waits in guard-checked slices) and may abandon the wait at any time
//     without leaking the in-flight slot — the slot is jointly owned and
//     the leader always completes it.
//   * Retry with backoff. I/O failures are classified transient (EINTR,
//     EIO, EAGAIN, fd exhaustion, injected flakiness) or permanent
//     (ENOENT, EACCES, ...). Transient failures retry with jittered
//     exponential backoff bounded by the caller's remaining deadline;
//     exhaustion surfaces as XQC0008. Permanent misses are negative-cached
//     with a TTL so a missing document doesn't cost a syscall per request.
//   * Quarantine. A document that fails to parse is quarantined: the
//     original failure is cached against the file's fingerprint and
//     replayed as XQC0009 (same status kind) without re-reading the file,
//     so a malformed "parse bomb" burns CPU once, not per request. The
//     quarantine lifts automatically when the file changes, or explicitly
//     via Invalidate(uri).
//   * Staleness. Cache hits validate an (inode, size, mtime) fingerprint;
//     a changed file is re-parsed and swapped in atomically (queries
//     holding the old tree keep it alive via shared_ptr).
//   * Persistent snapshots (opt-in: snapshot_dir != ""). The first
//     successful parse of a document serializes the finalized tree to a
//     checksummed binary snapshot (src/store/snapshot.h), atomically
//     published in the snapshot directory. Later cold loads (new process,
//     evicted entry) rebuild the tree from the snapshot instead of
//     re-parsing — the source file is still read (its content hash is the
//     snapshot's freshness key), but the parse is skipped. A snapshot that
//     is torn, truncated, bit-rotted, version-skewed, or stale is
//     quarantined (renamed "*.corrupt") and the load transparently falls
//     back to a reparse: a bad snapshot can never fail a query.
//   * Circuit breaker (opt-in: breaker_threshold > 0). Consecutive
//     transient-I/O failures against one URI prefix (its directory) past
//     the threshold open a per-prefix breaker: further loads fail
//     immediately with XQC0011 — no read, no retry/backoff burn — until
//     the cooldown elapses and a single half-open probe tests recovery
//     (success closes the breaker, failure re-opens it). With the
//     optional brownout policy, an open breaker serves the stale cached
//     tree (flagged in the stats) instead of failing, trading freshness
//     for availability while the I/O tier is sick. With snapshots enabled
//     the brownout extends to the disk tier: if no stale tree is in
//     memory, a valid snapshot is served (without a source read — the
//     source is unreachable by definition while the breaker is open).
//   * Content rechecks. The (inode, size, mtime) fingerprint cannot see a
//     same-size rewrite within the filesystem's mtime granularity. Cache
//     hits within content_recheck_window_ms of the entry's load re-hash
//     the file's bytes and force a reload on mismatch, closing the
//     same-second-rewrite staleness hole.
//
// Guard interplay: the *performing* query's guard is threaded through the
// read and the parse, so deadlines, cancellation, and memory budgets all
// apply mid-load; a guard trip is returned to that caller and is never
// cached or shared with waiters (they retry, possibly becoming the new
// leader).
//
// Thread safety: all public methods are safe to call from any thread. The
// store mutex guards only map/list manipulation; reads and parses run
// unlocked.
#ifndef XQC_STORE_DOCUMENT_STORE_H_
#define XQC_STORE_DOCUMENT_STORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/guard.h"
#include "src/base/status.h"
#include "src/store/io_fault.h"
#include "src/xml/node.h"

namespace xqc {

/// Lexically normalizes a document URI so that "a.xml", "./a.xml", and
/// "dir/../a.xml" name one cache entry: collapses "." and ".." segments
/// and duplicate slashes, preserving a leading "/" and leading ".."s of
/// relative paths. URIs with a scheme ("http://...") pass through
/// unchanged. This is the cache-key function for the DocumentStore and
/// DynamicContext's document registry.
std::string NormalizeDocUri(const std::string& uri);

/// Enumerates the member documents of a collection URI (fn:collection /
/// fn:uri-collection). A collection URI names either a directory (members
/// are its "*.xml" entries) or a glob whose last path segment contains '*'
/// (matched against member basenames, non-recursive). Members are returned
/// as normalized URIs in lexicographically sorted order — the collection's
/// stable *ordinal* order, which the k-way merge of the parallel executor
/// keys on (DESIGN.md "Intra-query parallelism"). A glob that matches
/// nothing is a valid, empty collection. Errors:
///   FODC0002  nonexistent or unreadable directory, or a non-file scheme
///   FODC0004  the URI names a regular file (a document, not a collection)
Result<std::vector<std::string>> ListCollectionMembers(const std::string& uri);

/// Per-execution DocumentStore counters (merged into ExecStats::doc_store;
/// observable via PreparedQuery::last_exec_stats and xqc_shell --stats).
struct DocStoreStats {
  int64_t hits = 0;               // served from the LRU cache
  int64_t misses = 0;             // parsed from disk by this execution
  int64_t evictions = 0;          // entries evicted to make room
  int64_t retries = 0;            // transient-failure retries performed
  int64_t quarantine_hits = 0;    // cached failures replayed (XQC0009)
  int64_t negative_hits = 0;      // TTL'd missing-document replays
  int64_t stale_reloads = 0;      // fingerprint mismatches -> re-parse
  int64_t singleflight_waits = 0; // loads served by another query's parse
  int64_t uncached_oversize = 0;  // docs larger than the whole budget
  int64_t breaker_fast_fails = 0; // loads failed XQC0011 by an open breaker
  int64_t brownout_serves = 0;    // stale trees served under brownout

  // --- Persistent snapshot tier (snapshot_dir != "").
  int64_t snapshot_hits = 0;      // trees rebuilt from a valid snapshot
  int64_t snapshot_writes = 0;    // snapshots published after a parse
  int64_t snapshot_write_failures = 0;  // failed publishes (load unaffected)
  int64_t snapshot_quarantines = 0;     // bad snapshots moved to *.corrupt
  int64_t snapshot_stale = 0;     // quarantines caused by source-content skew
  int64_t snapshot_brownout_serves = 0;  // breaker-open serves from disk
  int64_t content_rechecks = 0;   // cache-hit content hashes re-verified
  int64_t snapshot_bytes_read = 0;
  int64_t snapshot_bytes_written = 0;

  // --- fn:collection resolution (collections of documents).
  int64_t collections_resolved = 0;  // collection URIs enumerated
  int64_t collection_members = 0;    // member documents resolved
  int64_t collection_members_skipped = 0;  // bad members skipped (lenient)
  int64_t collection_reorders = 0;   // force-fresh reloads restoring the
                                     // ordinal interval-block order

  /// this += k * o, field by field.
  void Add(const DocStoreStats& o, int64_t k = 1) {
    hits += k * o.hits;
    misses += k * o.misses;
    evictions += k * o.evictions;
    retries += k * o.retries;
    quarantine_hits += k * o.quarantine_hits;
    negative_hits += k * o.negative_hits;
    stale_reloads += k * o.stale_reloads;
    singleflight_waits += k * o.singleflight_waits;
    uncached_oversize += k * o.uncached_oversize;
    breaker_fast_fails += k * o.breaker_fast_fails;
    brownout_serves += k * o.brownout_serves;
    snapshot_hits += k * o.snapshot_hits;
    snapshot_writes += k * o.snapshot_writes;
    snapshot_write_failures += k * o.snapshot_write_failures;
    snapshot_quarantines += k * o.snapshot_quarantines;
    snapshot_stale += k * o.snapshot_stale;
    snapshot_brownout_serves += k * o.snapshot_brownout_serves;
    content_rechecks += k * o.content_rechecks;
    snapshot_bytes_read += k * o.snapshot_bytes_read;
    snapshot_bytes_written += k * o.snapshot_bytes_written;
    collections_resolved += k * o.collections_resolved;
    collection_members += k * o.collection_members;
    collection_members_skipped += k * o.collection_members_skipped;
    collection_reorders += k * o.collection_reorders;
  }
};

struct DocumentStoreOptions {
  /// Byte budget for cached trees (estimated as file bytes + node count *
  /// QueryGuard::kNodeCost). 0 disables caching entirely (every load is an
  /// uncached parse — singleflight, retry, and quarantine still apply).
  int64_t max_bytes = 256 << 20;
  /// How long a missing-document verdict is replayed without re-probing
  /// the filesystem.
  int64_t negative_ttl_ms = 250;
  /// Transient-failure retries per load (on top of the first attempt).
  int max_retries = 3;
  /// Base backoff before retry k is base << (k-1), jittered into
  /// [b, 2b), and always bounded by the caller's remaining deadline.
  int64_t retry_backoff_ms = 2;
  /// Circuit breaker: consecutive transient-I/O failures against one URI
  /// prefix before its breaker opens and loads fail fast with XQC0011.
  /// 0 disables the breaker entirely (the PR-6 oracle behavior).
  int breaker_threshold = 0;
  /// How long an open breaker blocks loads before a single half-open
  /// probe is allowed to test recovery.
  int64_t breaker_cooldown_ms = 100;
  /// Brownout policy: while a prefix's breaker is open, serve the stale
  /// cached tree for a URI (if one exists) instead of failing XQC0011.
  /// Serves are flagged in DocStoreStats::brownout_serves.
  bool brownout = false;
  /// Directory for persistent tree snapshots ("" disables the disk tier).
  /// Created (one level) if missing; orphaned "*.tmp.*" files from a
  /// crashed writer are swept on configuration.
  std::string snapshot_dir;
  /// Cache hits whose entry was loaded within this window re-hash the
  /// file's content to catch same-size rewrites invisible to the
  /// (inode, size, mtime) fingerprint. 0 disables rechecks.
  int64_t content_recheck_window_ms = 2000;
};

class DocumentStore {
 public:
  explicit DocumentStore(DocumentStoreOptions options = {});
  ~DocumentStore();

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// The process-wide store used by DynamicContext unless overridden.
  static DocumentStore* Global();

  struct LoadOptions {
    /// The requesting query's guard: its deadline/cancellation bound the
    /// read, the singleflight wait, and the retry backoff, and its memory
    /// budget is charged for the parse. nullptr = unlimited.
    QueryGuard* guard = nullptr;
    /// Per-execution counters to bump (may be nullptr).
    DocStoreStats* stats = nullptr;
    /// Out: set true iff this call built the document from disk — by
    /// parsing the source or rebuilding its snapshot (cache / singleflight
    /// servings leave it false). May be nullptr.
    bool* performed_parse = nullptr;
    /// Whether this load may use the persistent snapshot tier (no-op when
    /// no snapshot_dir is configured). EngineOptions::use_snapshots /
    /// xqc_shell --no-snapshots thread through to here.
    bool use_snapshots = true;
    /// Treat any existing cache entry as stale: drop it and perform a fresh
    /// leader load (re-parse, or snapshot rebuild — either way the new tree
    /// draws a fresh interval-id block). Collection resolution uses this to
    /// restore ordinal-increasing document order after cache evictions
    /// scrambled the members' finalization order (see
    /// DynamicContext::ResolveCollection).
    bool force_fresh = false;
  };

  /// Resolves `uri` (normalized internally) to a parsed, finalized,
  /// shareable document. Errors:
  ///   XQC0001/XQC0002/XQC0003  caller's guard tripped mid-load
  ///   XQC0008                  transient I/O failure survived all retries
  ///   XQC0009                  quarantined document (cached failure)
  ///   XQC0011                  circuit breaker open for the URI's prefix
  ///   FODC0002                 document does not exist / permanent I/O
  ///   XPST0003 (kParseError)   first parse of a malformed document
  Result<NodePtr> Load(const std::string& uri, const LoadOptions& opts);
  Result<NodePtr> Load(const std::string& uri) {
    return Load(uri, LoadOptions());
  }

  /// ListCollectionMembers with the store's I/O fault injector applied to
  /// the directory enumeration (kFailOpen fails it as FODC0002) and the
  /// per-execution collection counters bumped.
  Result<std::vector<std::string>> ListCollection(const std::string& uri,
                                                  DocStoreStats* stats);

  /// Drops `uri`'s cache entry, quarantine verdict, negative-cache entry,
  /// and (when the disk tier is enabled) its snapshot and quarantined
  /// snapshot files. Returns true if anything was dropped. Queries already
  /// holding the old tree keep it; the next Load re-reads the file.
  bool Invalidate(const std::string& uri);

  /// Invalidate every URI, including all snapshot files on disk.
  void InvalidateAll();

  /// Drops every memory-cache entry but leaves the disk snapshot tier (and
  /// quarantine / negative verdicts) untouched — the next loads are cold
  /// in memory but warm on disk. Test/bench hook.
  void DropMemoryCache();

  /// Reconfigures the snapshot directory at runtime ("" disables the disk
  /// tier). Creates the directory (one level, best-effort) and sweeps
  /// orphaned temp files from crashed writers.
  void set_snapshot_dir(const std::string& dir);
  std::string snapshot_dir() const;

  /// Reconfigures the byte budget, evicting immediately if over. Intended
  /// for startup configuration (xqc_shell --doc-store-mb).
  void set_max_bytes(int64_t max_bytes);

  /// Reconfigures the circuit breaker threshold / brownout policy at
  /// runtime (xqc_shell --breaker-threshold / --brownout). Threshold <= 0
  /// disables the breaker and resets all per-prefix breaker state.
  void set_breaker_threshold(int threshold);
  void set_brownout(bool brownout);

  /// Test-only deterministic I/O faults (see io_fault.h). Not owned; pass
  /// nullptr to clear. Safe to set from any thread between loads.
  void set_fault_injector(IoFaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Cumulative whole-store counters plus current cache occupancy.
  struct Counters {
    DocStoreStats totals;
    int64_t bytes_cached = 0;
    int64_t entries = 0;
    int64_t quarantined = 0;
    /// Breaker state-machine transitions (cumulative) and current opens.
    int64_t breaker_opens = 0;       // closed/half-open -> open
    int64_t breaker_half_opens = 0;  // open -> half-open (probe granted)
    int64_t breaker_closes = 0;      // half-open -> closed (probe succeeded)
    int64_t breakers_open = 0;       // prefixes currently open or half-open
  };
  Counters counters() const;

  DocumentStoreOptions options() const {
    DocumentStoreOptions o = options_;
    o.max_bytes = max_bytes_.load(std::memory_order_relaxed);
    o.breaker_threshold = breaker_threshold_.load(std::memory_order_relaxed);
    o.brownout = brownout_.load(std::memory_order_relaxed);
    return o;
  }

 private:
  /// (inode, size, mtime) identity of a file at read time.
  struct Fingerprint {
    uint64_t inode = 0;
    int64_t size = -1;
    int64_t mtime_sec = 0;
    int64_t mtime_nsec = 0;
    bool operator==(const Fingerprint& o) const {
      return inode == o.inode && size == o.size && mtime_sec == o.mtime_sec &&
             mtime_nsec == o.mtime_nsec;
    }
  };

  struct CacheEntry {
    std::string uri;
    NodePtr doc;
    int64_t bytes = 0;
    Fingerprint fp;
    /// XXH64 of the source bytes this tree was built from; doubles as the
    /// snapshot freshness key and the content-recheck oracle.
    uint64_t content_hash = 0;
    /// When the entry was (re)loaded; hits inside the recheck window
    /// re-verify content_hash against the file.
    std::chrono::steady_clock::time_point loaded_at;
  };

  /// Jointly owned singleflight slot: the leader parses and publishes; any
  /// number of waiters block on `cv` in guard-checked slices and may
  /// abandon at any time (shared ownership means no leak either way).
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;            // when done
    NodePtr doc;              // when done && status.ok()
    bool leader_trip = false; // failure was the leader's own guard trip
  };

  struct Quarantined {
    Status status;  // the original parse/validation failure
    Fingerprint fp;
  };

  struct Negative {
    Status status;  // the original not-found / permanent I/O failure
    std::chrono::steady_clock::time_point expires;
  };

  /// Per-URI-prefix circuit breaker (see the file comment). All state is
  /// guarded by mu_; the read/parse itself still runs unlocked.
  struct Breaker {
    enum class State { kClosed, kOpen, kHalfOpen };
    State state = State::kClosed;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point opened_at;
    bool probe_in_flight = false;  // kHalfOpen: the single granted probe
  };

  /// The breaker grouping key: the URI's directory ("" for bare names),
  /// so one sick mount/device opens one breaker, not one per file.
  static std::string BreakerPrefix(const std::string& uri);

  /// Admission decision for `uri` under its prefix's breaker. Caller
  /// holds mu_. kProbe means the caller was granted the single half-open
  /// probe and MUST report its outcome (success/failure/abort).
  enum class BreakerVerdict { kProceed, kProbe, kOpen };
  BreakerVerdict BreakerAdmitLocked(const std::string& prefix);

  /// Outcome reporting from the leader's read attempts (lock taken
  /// inside). A transient failure feeds the failure counter and can open
  /// the breaker; a successful read closes a half-open breaker and resets
  /// the counter; an aborted probe (the leader's own guard tripped)
  /// returns the breaker to kOpen so the next caller may probe.
  void BreakerRecordFailure(const std::string& prefix);
  void BreakerRecordSuccess(const std::string& prefix);
  void BreakerRecordAbort(const std::string& prefix);

  /// One full read+retry+parse cycle, performed by a singleflight leader
  /// outside the store lock. On success also inserts into the cache /
  /// quarantine / negative maps. `probe` marks the breaker's half-open
  /// probe, whose outcome must be reported back to the breaker.
  Result<NodePtr> LoadAsLeader(const std::string& uri, QueryGuard* guard,
                               DocStoreStats* stats, bool* leader_trip,
                               bool probe, bool use_snapshots);

  /// Reads the file, applying injected faults and classifying errors.
  struct ReadOutcome {
    Status status;
    bool transient = false;
    std::string content;
    Fingerprint fp;
  };
  ReadOutcome ReadFile(const std::string& uri, QueryGuard* guard);

  /// Inserts a parsed doc, evicting LRU entries while over budget.
  void InsertCached(const std::string& uri, const NodePtr& doc,
                    int64_t content_bytes, const Fingerprint& fp,
                    uint64_t content_hash, DocStoreStats* stats);

  /// The snapshot file path for a normalized URI, or "" when the disk
  /// tier is disabled. Takes mu_; call only when it isn't held.
  std::string SnapshotPathFor(const std::string& uri) const;

  /// Evicts LRU entries until bytes_cached_ <= options_.max_bytes.
  /// Caller holds mu_.
  void EvictToBudgetLocked(DocStoreStats* stats);

  /// Fills `fp` from the file's metadata; false when the file is missing
  /// or not a regular file.
  static bool StatFile(const std::string& path, Fingerprint* fp);

  /// Thread-safe splitmix64 stream for backoff jitter.
  uint64_t NextRand();

  /// Bumps a per-execution counter (null-safe; per-exec stats are owned by
  /// one query and need no lock).
  static void Bump(DocStoreStats* stats, int64_t DocStoreStats::*field,
                   int64_t n = 1) {
    if (stats != nullptr) stats->*field += n;
  }
  /// Bumps a whole-store counter (takes mu_; call only when it isn't held).
  void CountGlobal(int64_t DocStoreStats::*field, int64_t n = 1);

  /// Immutable after construction, except max_bytes / breaker_threshold /
  /// brownout which live in the atomic mirrors below (runtime setters).
  DocumentStoreOptions options_;
  std::atomic<int64_t> max_bytes_;
  std::atomic<int> breaker_threshold_;
  std::atomic<bool> brownout_;
  std::atomic<IoFaultInjector*> fault_injector_{nullptr};
  std::atomic<uint64_t> jitter_state_;

  mutable std::mutex mu_;
  std::string snapshot_dir_;   // "" = disk tier disabled (guarded by mu_)
  std::list<CacheEntry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::unordered_map<std::string, Quarantined> quarantine_;
  std::unordered_map<std::string, Negative> negative_;
  std::unordered_map<std::string, Breaker> breakers_;
  int64_t bytes_cached_ = 0;
  DocStoreStats totals_;
  int64_t breaker_opens_ = 0;
  int64_t breaker_half_opens_ = 0;
  int64_t breaker_closes_ = 0;
};

}  // namespace xqc

#endif  // XQC_STORE_DOCUMENT_STORE_H_
