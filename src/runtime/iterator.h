// Pull-based (open/next-batch/close) execution of the tuple algebra.
//
// Every table operator that can stream has exactly one implementation: a
// TupleIterator built by PlanEvaluator::OpenTable (iterator.cc) that moves
// tuples to its consumer through NextBatch(). A consumer that needs only a
// prefix of the result — fn:exists, fn:empty, a positional [1] head,
// fn:subsequence, a quantified expression, the ResultStream cursor —
// pulls with a demand of one tuple and stops, so the untouched suffix of
// the input is never evaluated. Full consumers pull
// EngineOptions::batch_size tuples at a time; materializing a table
// (PlanEvaluator::EvalTable) is draining its iterator. GroupBy and OrderBy are pipeline breakers that
// materialize behind a TableIter.
//
// Guard accounting never depends on the batch: operators credit steps per
// tuple with QueryGuard::CheckSteps and charge memory with one Account*
// call per row (per probe for joins), so step counts, accounted bytes and
// fault-injection trip points are the same at every batch size (see
// DESIGN.md "Batched execution").
#ifndef XQC_RUNTIME_ITERATOR_H_
#define XQC_RUNTIME_ITERATOR_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/runtime/tuple.h"

namespace xqc {

/// A reusable buffer of tuples moved between iterators by NextBatch().
/// Slots are recycled across refills, so a steady-state pipeline allocates
/// no per-batch slot memory. clear() releases the tuples it drops: a stale
/// slot would keep sharing field storage with tuples already passed on,
/// which turns a consuming field read downstream (Tuple::Take) into a copy.
/// An operator that builds its output from copies of its input batch
/// clears that batch once it is consumed.
class TupleBatch {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Tuple& operator[](size_t i) { return slots_[i]; }
  const Tuple& operator[](size_t i) const { return slots_[i]; }
  void clear() {
    for (size_t i = 0; i < size_; i++) slots_[i] = Tuple();
    size_ = 0;
  }

  /// Appends by move, reusing a cleared slot when one exists.
  void push(Tuple&& t) {
    if (size_ < slots_.size()) {
      slots_[size_] = std::move(t);
    } else {
      slots_.push_back(std::move(t));
    }
    size_++;
  }

  /// Takes a whole table as the batch contents in O(1), bypassing the
  /// per-tuple moves of push(). Only valid on an empty batch (the
  /// common producer fast path: a probe/chunk result that fits the
  /// demand bound becomes the batch wholesale). `rows` is left empty
  /// but with its capacity intact for the producer to refill.
  void adopt(std::vector<Tuple>* rows) {
    slots_.swap(*rows);
    size_ = slots_.size();
    rows->clear();
  }

 private:
  std::vector<Tuple> slots_;
  size_t size_ = 0;
};

class TupleIterator {
 public:
  virtual ~TupleIterator() = default;

  /// Acquires resources (child iterators, the build side of a join).
  /// Called exactly once, before the first NextBatch().
  virtual Status Open() = 0;

  /// Fills `out` (cleared first) with up to `max` tuples. An empty
  /// batch means end of stream and is stable (further calls stay
  /// empty); a short non-empty batch does NOT — operator boundaries and
  /// early-exit clamps cut batches short. `max` is the consumer's
  /// demand bound: an implementation never pulls more than `max`
  /// tuples of lookahead from a 1:1 child, which is what keeps
  /// positional early exits ([1], [position() <= N]) from evaluating
  /// input a demand-1 consumer would not.
  virtual Status NextBatch(TupleBatch* out, size_t max) = 0;

  /// Releases resources early (optional; the destructor also releases).
  virtual void Close() {}
};

using TupleIteratorPtr = std::unique_ptr<TupleIterator>;

}  // namespace xqc

#endif  // XQC_RUNTIME_ITERATOR_H_
