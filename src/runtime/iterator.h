// Pull-based (open/next/close) execution of the tuple algebra.
//
// The materializing evaluator (eval.h) computes every operator's full
// table before its consumer runs; a TupleIterator instead yields one
// tuple per Next() call, so a consumer that needs only a prefix of the
// result — fn:exists, fn:empty, a positional [1] head, fn:subsequence,
// a quantified expression — stops pulling and the untouched suffix of
// the input is never evaluated. Iterators are produced by
// PlanEvaluator::OpenTable (iterator.cc); GroupBy and OrderBy are
// pipeline breakers that materialize behind a TableIter.
//
// Batched execution: NextBatch() moves up to `max` tuples per virtual
// call through a TupleBatch, amortizing dispatch and guard traffic
// across the batch (see DESIGN.md "Batched execution"). A given
// iterator instance is driven through exactly one of the two
// interfaces: consumers use Next() when ExecOptions::batch_size == 1
// (the tuple-at-a-time oracle) and NextBatch() otherwise. Batched
// operators credit guard steps with QueryGuard::CheckSteps so the
// oracle's step/check/trip accounting is reproduced exactly.
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
  /// Called exactly once, before the first Next().
  virtual Status Open() = 0;

  /// Produces the next tuple into `*out`. Returns false at end of
  /// stream; after returning false, behavior of further calls is
  /// undefined. `*out` is overwritten only on a true return.
  virtual Result<bool> Next(Tuple* out) = 0;

  /// Fills `out` (cleared first) with up to `max` tuples. An empty
  /// batch means end of stream and is stable (further calls stay
  /// empty); a short non-empty batch does NOT — operator boundaries and
  /// early-exit clamps cut batches short. `max` is the consumer's
  /// demand bound: an implementation never pulls more than `max`
  /// tuples of lookahead from a 1:1 child, which is what keeps
  /// positional early exits ([1], [position() <= N]) from evaluating
  /// input the oracle would not. The default implementation loops
  /// Next(); hot operators override it.
  virtual Status NextBatch(TupleBatch* out, size_t max);

  /// Releases resources early (optional; the destructor also releases).
  virtual void Close() {}

 private:
  bool default_batch_eos_ = false;  // latch for the default NextBatch
};

using TupleIteratorPtr = std::unique_ptr<TupleIterator>;

}  // namespace xqc

#endif  // XQC_RUNTIME_ITERATOR_H_
