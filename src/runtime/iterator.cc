// Iterator (open/next-batch/close) implementations for the tuple algebra
// and PlanEvaluator::OpenTable, the physical-plan factory for both
// execution modes.
//
// Streaming operators: Select (with a positional early-stop bound),
// Product (left materialized, right streamed), Map, OMap,
// MapConcat/OMapConcat, MapIndex/MapIndexStep, MapFromItem, and
// Join/LOuterJoin (Figure 6 build side materialized once, probe side
// streamed). GroupBy and OrderBy need their whole input before emitting
// anything, so they — like IN and the single-tuple constructors —
// materialize behind a TableIter.
#include "src/runtime/iterator.h"

#include <string>
#include <string_view>
#include <utility>

#include "src/runtime/eval.h"
#include "src/runtime/joins.h"

namespace xqc {

namespace {

/// Materialized fallback: yields the tuples of a precomputed table.
class TableIter : public TupleIterator {
 public:
  explicit TableIter(Table table) : table_(std::move(table)) {}
  Status Open() override { return Status::OK(); }
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    while (out->size() < max && idx_ < table_.size()) {
      out->push(std::move(table_[idx_++]));
    }
    return Status::OK();
  }
  void Close() override {
    table_.clear();
    idx_ = 0;
  }

 private:
  Table table_;
  size_t idx_ = 0;
};

/// The largest input position that can still satisfy a positional
/// predicate over `pos_field`, or -1 when the predicate has no such
/// bound. Recognizes the normalized [N] / [position() <= N] shapes:
/// op:(general-)?{eq,le,lt}(#pos_field(In), Scalar N) and the mirrored
/// Scalar-first {eq,ge,gt} forms. A wrong -1 only costs the early stop;
/// the Select predicate itself still filters every tuple.
int64_t PositionalBound(const Op& pred, Symbol pos_field) {
  if (pred.kind != OpKind::kCall || pred.inputs.size() != 2) return -1;
  std::string_view n(pred.name.str());
  if (n.rfind("op:general-", 0) == 0) {
    n.remove_prefix(11);
  } else if (n.rfind("op:", 0) == 0) {
    n.remove_prefix(3);
  } else {
    return -1;
  }
  auto is_pos = [&](const Op& o) {
    return o.kind == OpKind::kFieldAccess && o.name == pos_field &&
           o.inputs.size() == 1 && o.inputs[0]->kind == OpKind::kIn;
  };
  auto int_lit = [](const Op& o, int64_t* v) {
    if (o.kind != OpKind::kScalar ||
        o.literal.type() != AtomicType::kInteger) {
      return false;
    }
    *v = o.literal.AsInt();
    return true;
  };
  int64_t lit = 0;
  if (is_pos(*pred.inputs[0]) && int_lit(*pred.inputs[1], &lit)) {
    // pos OP lit
  } else if (is_pos(*pred.inputs[1]) && int_lit(*pred.inputs[0], &lit)) {
    // lit OP pos  =>  pos MIRROR(OP) lit
    if (n == "ge") {
      n = "le";
    } else if (n == "gt") {
      n = "lt";
    } else if (n != "eq") {
      return -1;
    }
  } else {
    return -1;
  }
  int64_t bound;
  if (n == "eq" || n == "le") {
    bound = lit;
  } else if (n == "lt") {
    bound = lit - 1;
  } else {
    return -1;
  }
  return bound < 0 ? 0 : bound;
}

/// Select{pred}: filters the child stream. When the child is a
/// MapIndex[q] and the predicate bounds q above, stops pulling once no
/// later position can match — this is the [1] / [position() <= N] early
/// exit (streaming mode only; OpenTable passes bound -1 otherwise).
class SelectIter : public TupleIterator {
 public:
  SelectIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
             TupleIteratorPtr child, int64_t bound)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)), bound_(bound) {}
  Status Open() override { return Status::OK(); }
  // One guard step per input tuple pulled, plus one for the pull that
  // discovers end-of-stream or the positional stop. The positional bound
  // clamps the demand passed down, so a [N] head pulls exactly N input
  // tuples whatever the consumer's demand.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (stopped_ || eos_) return Status::OK();
    while (out->size() < max) {
      size_t want = max - out->size();
      if (bound_ >= 0) {
        int64_t left = bound_ - pulled_;
        if (left <= 0) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          stopped_ = true;
          ev_->mutable_stats()->streaming_early_stops++;
          child_->Close();
          break;
        }
        if (static_cast<int64_t>(want) > left) {
          want = static_cast<size_t>(left);
        }
      }
      XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, want));
      if (in_.empty()) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      }
      XQC_RETURN_IF_ERROR(
          ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
      pulled_ += static_cast<int64_t>(in_.size());
      for (size_t i = 0; i < in_.size(); i++) {
        XQC_ASSIGN_OR_RETURN(bool b,
                             ev_->EvalPredicate(*op_->deps[0], in_[i], c_));
        if (b) out->push(std::move(in_[i]));
      }
    }
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;
  int64_t bound_;  // input pulls that can still match; -1 = unbounded
  int64_t pulled_ = 0;
  bool stopped_ = false;
  bool eos_ = false;
  TupleBatch in_;
};

/// Product: materializes the left side once, streams the right.
// The left side is materialized (it is almost always the singleton IN or a
// small outer binding) so the big right side — the generator in compiled
// quantifier/FLWOR shapes like Product(IN, MapFromItem{...}) — can stream.
// Output stays left-major: the right stream is paired with the first left
// tuple as it arrives and replayed from a buffer for every later one; the
// buffer is skipped entirely when the left is a singleton. Every output
// row is charged one tuple when it is emitted.
class ProductIter : public TupleIterator {
 public:
  ProductIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c)
      : ev_(ev), op_(op), c_(c) {}
  Status Open() override {
    XQC_ASSIGN_OR_RETURN(left_, ev_->EvalTable(*op_->inputs[0], c_));
    if (left_.empty()) return Status::OK();
    XQC_ASSIGN_OR_RETURN(right_, ev_->OpenTable(*op_->inputs[1], c_));
    return Status::OK();
  }
  // Guard steps: one per emitted row, one when the right stream ends, one
  // per advance to the next left tuple, and one at the end.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_ || left_.empty()) return Status::OK();
    while (out->size() < max) {
      if (right_ != nullptr) {
        XQC_RETURN_IF_ERROR(right_->NextBatch(&in_, max - out->size()));
        if (in_.empty()) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          right_.reset();
          lidx_ = 1;
          continue;
        }
        XQC_RETURN_IF_ERROR(
            ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
        for (size_t i = 0; i < in_.size(); i++) {
          XQC_RETURN_IF_ERROR(Emit(left_[0], in_[i], out));
          if (left_.size() > 1) replay_.push_back(std::move(in_[i]));
        }
        in_.clear();
        continue;
      }
      if (lidx_ >= left_.size()) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      }
      if (ridx_ < replay_.size()) {
        size_t k = replay_.size() - ridx_;
        if (k > max - out->size()) k = max - out->size();
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(static_cast<int64_t>(k)));
        for (size_t i = 0; i < k; i++) {
          XQC_RETURN_IF_ERROR(Emit(left_[lidx_], replay_[ridx_++], out));
        }
        continue;
      }
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      lidx_++;
      ridx_ = 0;
    }
    return Status::OK();
  }
  void Close() override {
    if (right_ != nullptr) right_->Close();
  }

 private:
  Status Emit(const Tuple& l, const Tuple& r, TupleBatch* out) {
    XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
    out->push(Tuple::Concat(l, r));
    return Status::OK();
  }

  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  Table left_;
  TupleIteratorPtr right_;  // reset once the right stream ends
  Table replay_;  // right tuples, kept only if they must repeat
  bool eos_ = false;
  size_t lidx_ = 0;
  size_t ridx_ = 0;
  TupleBatch in_;
};

/// Map{f}: one output tuple per input tuple. Checks nothing itself
/// (EvalTuple checks on entry); a short child batch passes through short.
class MapIter : public TupleIterator {
 public:
  MapIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
          TupleIteratorPtr child)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, max));
    if (in_.empty()) {
      eos_ = true;
      return Status::OK();
    }
    for (size_t i = 0; i < in_.size(); i++) {
      EvalCtx dc = c_;
      dc.tuple = &in_[i];
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Tuple r, ev_->EvalTuple(*op_->deps[0], dc));
      out->push(std::move(r));
    }
    in_.clear();
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;
  bool eos_ = false;
  TupleBatch in_;
};

/// OMap[q]: prepends [q:false] to each tuple; an empty input becomes the
/// single tuple [q:true].
class OMapIter : public TupleIterator {
 public:
  OMapIter(const Op* op, TupleIteratorPtr child)
      : op_(op), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, max));
    if (in_.empty()) {
      eos_ = true;
      if (first_) {
        Tuple flag;
        flag.Set(op_->name, {AtomicValue::Boolean(true)});
        out->push(std::move(flag));
      }
      return Status::OK();
    }
    first_ = false;
    for (size_t i = 0; i < in_.size(); i++) {
      out->push(NullRow(op_->name, false, in_[i]));
    }
    in_.clear();
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  const Op* op_;
  TupleIteratorPtr child_;
  bool first_ = true;
  bool eos_ = false;
  TupleBatch in_;
};

/// MapConcat{f} / OMapConcat[q]{f}: per outer tuple, streams the
/// dependent table f(t) and concatenates. The outer variant prepends the
/// [q:bool] null flag and emits [q:true]++t when f(t) is empty. Outer
/// tuples are prefetched into a demand-bounded buffer and opened one
/// inner at a time, so `current_` is stable storage for the dependent
/// iterator's IN tuple. Every concatenated row is charged one tuple when
/// it is emitted; a null row is not.
class MapConcatIter : public TupleIterator {
 public:
  MapConcatIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
                TupleIteratorPtr child, bool outer)
      : ev_(ev), op_(op), c_(c), child_(std::move(child)), outer_(outer) {}
  Status Open() override { return Status::OK(); }
  // Guard steps: one per emitted inner row, one per null row, one per
  // outer advance, one at outer end-of-stream.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (inner_ != nullptr) {
        XQC_RETURN_IF_ERROR(inner_->NextBatch(&in_, max - out->size()));
        if (!in_.empty()) {
          XQC_RETURN_IF_ERROR(
              ev_->guard()->CheckSteps(static_cast<int64_t>(in_.size())));
          inner_matched_ = true;
          for (size_t i = 0; i < in_.size(); i++) {
            XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
            Tuple joined = Tuple::Concat(current_, in_[i]);
            out->push(outer_ ? NullRow(op_->name, false, joined)
                             : std::move(joined));
          }
          in_.clear();
          continue;
        }
        bool unmatched = outer_ && !inner_matched_;
        inner_.reset();  // before current_ is overwritten below
        if (unmatched) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          out->push(NullRow(op_->name, true, current_));
          continue;
        }
      }
      if (opos_ >= ob_.size()) {
        XQC_RETURN_IF_ERROR(child_->NextBatch(&ob_, max - out->size()));
        opos_ = 0;
        if (ob_.empty()) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          eos_ = true;
          break;
        }
      }
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      current_ = std::move(ob_[opos_++]);
      EvalCtx dc = c_;
      dc.tuple = &current_;
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(inner_, ev_->OpenTable(*op_->deps[0], dc));
      inner_matched_ = false;
    }
    return Status::OK();
  }
  void Close() override {
    inner_.reset();
    child_->Close();
  }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr child_;
  bool outer_;
  Tuple current_;
  TupleIteratorPtr inner_;
  bool inner_matched_ = false;
  bool eos_ = false;
  TupleBatch in_;   // inner tuples of the current outer
  TupleBatch ob_;   // prefetched outer tuples
  size_t opos_ = 0;
};

/// MapIndex[q] / MapIndexStep[q]: appends [q:i] with i = 1, 2, ...
/// Checks nothing. The demand bound passes straight through, which lets a
/// positional Select above clamp how much source is evaluated below.
class MapIndexIter : public TupleIterator {
 public:
  MapIndexIter(const Op* op, TupleIteratorPtr child)
      : op_(op), child_(std::move(child)) {}
  Status Open() override { return Status::OK(); }
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    XQC_RETURN_IF_ERROR(child_->NextBatch(&in_, max));
    if (in_.empty()) {
      eos_ = true;
      return Status::OK();
    }
    for (size_t i = 0; i < in_.size(); i++) {
      Tuple idx;
      idx.Set(op_->name, {AtomicValue::Integer(++i_)});
      out->push(Tuple::Concat(in_[i], idx));
    }
    in_.clear();
    return Status::OK();
  }
  void Close() override { child_->Close(); }

 private:
  const Op* op_;
  TupleIteratorPtr child_;
  int64_t i_ = 0;
  bool eos_ = false;
  TupleBatch in_;
};

/// MapFromItem{f}: one tuple per input item. When the input is itself a
/// MapToItem (a nested FLWOR body), its tuple stream is pulled
/// incrementally — the full item sequence is never materialized. A range
/// `A to B` produces its integers on demand too; any other input
/// materializes once and tuples are still produced on demand. Every
/// produced tuple is charged one tuple and counts toward
/// stats().source_tuples, the "input tuples touched" measure of
/// streaming's early termination.
class MapFromItemIter : public TupleIterator {
 public:
  MapFromItemIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c)
      : ev_(ev), op_(op), c_(c) {}
  Status Open() override {
    const Op& input = *op_->inputs[0];
    if (input.kind == OpKind::kMapToItem) {
      XQC_ASSIGN_OR_RETURN(src_, ev_->OpenTable(*input.inputs[0], c_));
      item_dep_ = input.deps[0].get();
      return Status::OK();
    }
    XQC_ASSIGN_OR_RETURN(std::optional<IntegerRange> range,
                         ev_->OpenRange(input, c_));
    if (range.has_value()) {
      range_next_ = range->first;
      range_last_ = range->last;
      range_open_ = range->first <= range->last;
      return Status::OK();
    }
    XQC_ASSIGN_OR_RETURN(buf_, ev_->EvalItems(input, c_));
    return Status::OK();
  }
  // Guard steps: one per produced tuple, one per source-tuple pull, one
  // for the pull that discovers the end, and for `A to B` the op:to
  // builtin's one check per kRangeItemsPerCheck integers.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (pos_ < buf_.size()) {
        size_t k = buf_.size() - pos_;
        if (k > max - out->size()) k = max - out->size();
        XQC_RETURN_IF_ERROR(
            ev_->guard()->CheckSteps(static_cast<int64_t>(k)));
        for (size_t i = 0; i < k; i++) {
          Sequence one{buf_[pos_++]};
          EvalCtx dc = c_;
          dc.items = &one;
          dc.tuple = nullptr;
          XQC_ASSIGN_OR_RETURN(Tuple r, ev_->EvalTuple(*op_->deps[0], dc));
          XQC_RETURN_IF_ERROR(ev_->guard()->AccountTuples(1));
          ev_->mutable_stats()->source_tuples++;
          out->push(std::move(r));
        }
        continue;
      }
      if (range_open_) {
        XQC_RETURN_IF_ERROR(ev_->guard()->Check());
        buf_.clear();
        pos_ = 0;
        while (range_open_ &&
               buf_.size() < static_cast<size_t>(kRangeItemsPerCheck)) {
          buf_.push_back(AtomicValue::Integer(range_next_));
          // Stop at last rather than step past it: last may be INT64_MAX.
          if (range_next_ == range_last_) {
            range_open_ = false;
          } else {
            range_next_++;
          }
        }
        continue;
      }
      if (src_ == nullptr) {
        XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
        eos_ = true;
        break;
      }
      if (spos_ >= sb_.size()) {
        XQC_RETURN_IF_ERROR(src_->NextBatch(&sb_, max - out->size()));
        spos_ = 0;
        if (sb_.empty()) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          src_.reset();
          eos_ = true;
          break;
        }
      }
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      cur_ = std::move(sb_[spos_++]);
      EvalCtx dc = c_;
      dc.tuple = &cur_;
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(buf_, ev_->EvalItems(*item_dep_, dc));
      pos_ = 0;
    }
    return Status::OK();
  }
  void Close() override {
    src_.reset();
    buf_.clear();
    pos_ = 0;
    range_open_ = false;
  }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr src_;           // tuple source of a MapToItem input
  const Op* item_dep_ = nullptr;   // its per-tuple item plan
  Sequence buf_;
  size_t pos_ = 0;
  // An `A to B` input: [range_next_, range_last_] are the integers not yet
  // moved into buf_ while range_open_.
  int64_t range_next_ = 0;
  int64_t range_last_ = 0;
  bool range_open_ = false;
  bool eos_ = false;
  TupleBatch sb_;   // prefetched source tuples
  size_t spos_ = 0;
  Tuple cur_;       // stable storage for the current source tuple
};

/// Join / LOuterJoin: materializes and indexes the right (build) side at
/// Open — reusing the evaluator's table/index caches — then probes with
/// left tuples as they stream in.
class JoinIter : public TupleIterator {
 public:
  JoinIter(PlanEvaluator* ev, const Op* op, const EvalCtx& c,
           TupleIteratorPtr left, bool outer)
      : ev_(ev), op_(op), c_(c), left_(std::move(left)), outer_(outer) {}
  Status Open() override {
    XQC_ASSIGN_OR_RETURN(build_, ev_->BuildJoin(*op_, c_));
    return Status::OK();
  }
  // Left tuples are prefetched in demand-bounded batches and probed one at
  // a time as the output buffer drains; a probe's whole match set is
  // buffered. Guard steps: one per emitted row, one per probed left tuple,
  // one at left end-of-stream. Each probe charges its row count.
  Status NextBatch(TupleBatch* out, size_t max) override {
    out->clear();
    if (eos_) return Status::OK();
    while (out->size() < max) {
      if (bpos_ < buf_.size()) {
        size_t k = buf_.size() - bpos_;
        if (k > max - out->size()) k = max - out->size();
        XQC_RETURN_IF_ERROR(
            ev_->guard()->CheckSteps(static_cast<int64_t>(k)));
        if (out->empty() && bpos_ == 0 && k == buf_.size()) {
          // Whole probe result fits the demand: make it the batch in
          // O(1) and return it as a short batch (the contract allows
          // short non-empty batches) — zero per-row moves, one batch
          // per probe.
          out->adopt(&buf_);
          return Status::OK();
        }
        for (size_t i = 0; i < k; i++) {
          out->push(std::move(buf_[bpos_++]));
        }
        continue;
      }
      if (lpos_ >= lb_.size()) {
        XQC_RETURN_IF_ERROR(left_->NextBatch(&lb_, max - out->size()));
        lpos_ = 0;
        if (lb_.empty()) {
          XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
          eos_ = true;
          break;
        }
      }
      Tuple l = std::move(lb_[lpos_++]);
      XQC_RETURN_IF_ERROR(ev_->guard()->CheckSteps(1));
      buf_.clear();
      bpos_ = 0;
      XQC_RETURN_IF_ERROR(
          ev_->ProbeJoinTuple(*op_, build_.strategy, c_, l, *build_.right,
                              outer_, &buf_));
      XQC_RETURN_IF_ERROR(
          ev_->guard()->AccountTuples(static_cast<int64_t>(buf_.size())));
    }
    return Status::OK();
  }
  void Close() override { left_->Close(); }

 private:
  PlanEvaluator* ev_;
  const Op* op_;
  EvalCtx c_;
  TupleIteratorPtr left_;
  bool outer_;
  bool eos_ = false;
  JoinBuild build_;
  Table buf_;  // output rows of the current probe
  size_t bpos_ = 0;
  TupleBatch lb_;  // prefetched left (probe-side) tuples
  size_t lpos_ = 0;
};

}  // namespace

Result<TupleIteratorPtr> PlanEvaluator::OpenTable(const Op& op,
                                                  const EvalCtx& c) {
  TupleIteratorPtr it;
  switch (op.kind) {
    case OpKind::kSelect: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      const Op& input = *op.inputs[0];
      int64_t bound = -1;
      if (streaming() && (input.kind == OpKind::kMapIndex ||
                                 input.kind == OpKind::kMapIndexStep)) {
        bound = PositionalBound(*op.deps[0], input.name);
      }
      it = std::make_unique<SelectIter>(this, &op, c, std::move(child), bound);
      break;
    }
    case OpKind::kProduct: {
      it = std::make_unique<ProductIter>(this, &op, c);
      break;
    }
    case OpKind::kJoin:
    case OpKind::kLOuterJoin: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr left, OpenTable(*op.inputs[0], c));
      it = std::make_unique<JoinIter>(this, &op, c, std::move(left),
                                      op.kind == OpKind::kLOuterJoin);
      break;
    }
    case OpKind::kMap: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<MapIter>(this, &op, c, std::move(child));
      break;
    }
    case OpKind::kOMap: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<OMapIter>(&op, std::move(child));
      break;
    }
    case OpKind::kMapConcat:
    case OpKind::kOMapConcat: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<MapConcatIter>(this, &op, c, std::move(child),
                                           op.kind == OpKind::kOMapConcat);
      break;
    }
    case OpKind::kMapIndex:
    case OpKind::kMapIndexStep: {
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr child,
                           OpenTable(*op.inputs[0], c));
      it = std::make_unique<MapIndexIter>(&op, std::move(child));
      break;
    }
    case OpKind::kMapFromItem:
      it = std::make_unique<MapFromItemIter>(this, &op, c);
      break;
    case OpKind::kIn:
    case OpKind::kEmptyTuples:
    case OpKind::kTupleConstruct:
    case OpKind::kTupleConcat:
    case OpKind::kGroupBy:
    case OpKind::kOrderBy: {
      // Single tuples and the pipeline breakers: materialize once, then
      // iterate.
      XQC_ASSIGN_OR_RETURN(Table t, EvalTable(op, c));
      it = std::make_unique<TableIter>(std::move(t));
      break;
    }
    default:
      return Status::Internal(std::string(OpKindName(op.kind)) +
                              " evaluated in table context");
  }
  XQC_RETURN_IF_ERROR(it->Open());
  return it;
}

}  // namespace xqc
