// Per-query resource governance: deadlines, cooperative cancellation,
// memory budgets, output caps, and eval-step quotas.
//
// A QueryGuard is armed once per execution and consulted at cheap,
// amortized points across both engines (the tuple-algebra evaluator and
// the baseline interpreter) plus the XQuery/XML parsers. The fast path is
// a single counter decrement; every kCheckInterval steps the guard runs a
// real check (cancellation flag, wall clock, step quota). Memory is not
// hooked at the allocator: operators *account* the tuples/items/nodes they
// materialize through AccountTuples/AccountItems/AccountNodes, which map
// to byte estimates against the budget. The accounting counter is
// monotone — it tracks cumulative accounted allocation, which upper-bounds
// the true high-water mark — so `peak_memory_bytes` in ExecStats is the
// total accounted footprint, a deliberate over-approximation.
//
// Guard trips surface as Status::ResourceExhausted with vendor codes:
//
//   XQC0001  wall-clock deadline exceeded
//   XQC0002  cancelled via CancellationToken
//   XQC0003  memory budget exceeded
//   XQC0004  output-size cap exceeded
//   XQC0005  recursion depth exceeded (issued by the evaluators)
//   XQC0006  eval-step quota exceeded
//
// All limits default to 0 = unlimited; a default QueryGuard never trips.
// GuardFaultInjector lets tests deterministically trip the Nth check or
// fail the Nth accounted allocation to exercise every unwind path.
#ifndef XQC_BASE_GUARD_H_
#define XQC_BASE_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/base/status.h"
#include "src/base/xqc_codes.h"

namespace xqc {

/// Per-query resource limits. 0 means unlimited.
struct GuardLimits {
  /// Wall-clock deadline, measured from QueryGuard::Arm().
  int64_t deadline_ms = 0;
  /// Budget for accounted tuple/item/node allocations (estimates; see the
  /// file comment). Trips with XQC0003.
  int64_t max_memory_bytes = 0;
  /// Cap on result items delivered to the caller. Trips with XQC0004.
  int64_t max_output_items = 0;
  /// Quota on amortized eval steps (each step ~ one operator/expression
  /// visit or one tuple pulled). Trips with XQC0006.
  int64_t max_eval_steps = 0;

  bool any() const {
    return deadline_ms > 0 || max_memory_bytes > 0 || max_output_items > 0 ||
           max_eval_steps > 0;
  }
};

/// Shared cancellation flag. Copy the token before starting the query and
/// call RequestCancel() from any thread; the running query fails with
/// XQC0002 at its next guard check. A default-constructed token is inert
/// (never cancelled, RequestCancel is a no-op).
class CancellationToken {
 public:
  CancellationToken() = default;

  /// Creates a live token (default-constructed ones are inert).
  static CancellationToken Make() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Creates a live token that additionally observes `parent`: it reads as
  /// cancelled when either its own RequestCancel ran or the parent token
  /// was cancelled, while its own RequestCancel never touches the parent.
  /// Used by partitioned execution — the per-query abort token must fire
  /// when the caller cancels the whole query, but a partition error must
  /// only cancel the sibling partitions, never the caller's token.
  static CancellationToken MakeLinked(const CancellationToken& parent) {
    CancellationToken t = Make();
    t.parent_ = parent.flag_;
    return t;
  }

  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const {
    return (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) ||
           (parent_ != nullptr && parent_->load(std::memory_order_relaxed));
  }
  /// Whether this token was created by Make() (false for the inert
  /// default-constructed token, whose RequestCancel does nothing).
  bool live() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  std::shared_ptr<std::atomic<bool>> parent_;
};

/// Deterministic failure injection for tests: trip the Nth slow-path guard
/// check, or fail the Nth accounted allocation, regardless of limits.
struct GuardFaultInjector {
  /// 1-based index of the slow-path check to trip; 0 = never.
  int64_t trip_check_n = 0;
  /// Code to trip with (one of the kGuard*Code constants).
  const char* trip_code = kGuardCancelledCode;
  /// 1-based index of the Account{Memory,Items,Tuples,Nodes} call to fail
  /// with XQC0003; 0 = never.
  int64_t fail_alloc_n = 0;
};

/// The per-query guard. Not thread-safe except for the cancellation token;
/// one guard belongs to one executing query.
class QueryGuard {
 public:
  /// Approximate per-object byte costs used by the Account* helpers.
  static constexpr int64_t kItemCost = 48;
  static constexpr int64_t kTupleCost = 96;
  static constexpr int64_t kNodeCost = 160;
  /// Steps between slow-path checks. Small enough that a 50ms deadline is
  /// honored within a few ms of overshoot, large enough that the fast path
  /// dominates (a single decrement per step).
  static constexpr int64_t kCheckInterval = 256;

  QueryGuard() { Arm(); }
  explicit QueryGuard(
      const GuardLimits& limits,
      CancellationToken cancel = CancellationToken(),
      const GuardFaultInjector& injector = GuardFaultInjector())
      : limits_(limits), cancel_(std::move(cancel)), injector_(injector) {
    Arm();
  }

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// (Re)starts the deadline clock. Called by the constructor; call again
  /// to reuse a guard across executions.
  void Arm();

  /// The amortized per-step check. Fast path: one decrement and branch.
  Status Check() {
    if (--countdown_ > 0) return Status::OK();
    return SlowCheck();
  }

  /// Credits `n` steps at once — exactly equivalent to n sequential
  /// Check() calls (same steps_/checks_ totals, same slow-check cadence,
  /// so injector trips and the XQC0006 quota fire at the same logical
  /// step) but with one call. Batched iterators use this to amortize
  /// per-tuple guard traffic while keeping the tuple-at-a-time oracle's
  /// accounting bit-for-bit. n = 0 is a no-op.
  Status CheckSteps(int64_t n) {
    if (n < countdown_) {
      countdown_ -= n;
      return Status::OK();
    }
    return SlowCheckSteps(n);
  }

  /// An unamortized check, for coarse boundaries (e.g. each tuple a
  /// ResultStream delivers) where cancellation latency matters more than
  /// throughput. Does not advance the step counter.
  Status CheckNow();

  /// Charges `bytes` against the memory budget (monotone; see file
  /// comment). Returns XQC0003 when over budget or fault-injected.
  Status AccountMemory(int64_t bytes);
  Status AccountItems(int64_t n) { return AccountMemory(n * kItemCost); }
  Status AccountTuples(int64_t n) { return AccountMemory(n * kTupleCost); }
  Status AccountNodes(int64_t n) { return AccountMemory(n * kNodeCost); }

  /// Charges `n` items against the output cap. Returns XQC0004 when over.
  Status AccountOutput(int64_t n);

  void set_fault_injector(const GuardFaultInjector& fi) { injector_ = fi; }

  /// Milliseconds left until the armed deadline (clamped at 0), or -1 when
  /// no deadline is set. Lets waiting/retrying layers (DocumentStore) bound
  /// their sleeps by the caller's remaining budget.
  int64_t remaining_deadline_ms() const {
    if (!has_deadline_) return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline_ - std::chrono::steady_clock::now())
                    .count();
    return left > 0 ? left : 0;
  }

  const GuardLimits& limits() const { return limits_; }
  /// The token this guard watches. Partitioned execution links its
  /// per-query abort token to this, so worker guards observe the caller's
  /// cancellation even while every thread is busy inside a partition.
  const CancellationToken& cancel_token() const { return cancel_; }
  /// Slow-path checks performed (ExecStats::guard_checks).
  int64_t checks() const { return checks_; }
  /// Total accounted bytes (ExecStats::peak_memory_bytes).
  int64_t peak_memory_bytes() const { return memory_bytes_; }
  int64_t steps() const { return steps_; }
  /// Every step credited so far: steps() plus the credit still pending in
  /// the amortization countdown. Partitioned execution re-charges this
  /// exact count, so the parent's steps() ends where the serial run's does.
  int64_t steps_taken() const { return steps_ + kCheckInterval - countdown_; }
  int64_t output_items() const { return output_items_; }

 private:
  Status SlowCheck();
  Status SlowCheckSteps(int64_t n);

  GuardLimits limits_;
  CancellationToken cancel_;
  GuardFaultInjector injector_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  int64_t countdown_ = kCheckInterval;
  int64_t checks_ = 0;
  int64_t steps_ = 0;
  int64_t memory_bytes_ = 0;
  int64_t alloc_calls_ = 0;
  int64_t output_items_ = 0;
};

/// A per-thread guard with no limits and an inert cancellation token, used
/// as a fallback so evaluator hot paths can check unconditionally instead
/// of branching on "is a guard installed". Its counters are shared across
/// queries on the thread — never report stats from it.
QueryGuard* UnlimitedGuard();

}  // namespace xqc

#endif  // XQC_BASE_GUARD_H_
