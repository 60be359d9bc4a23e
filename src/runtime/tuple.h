// Tuples and tables of the physical data model (Section 3): a tuple is a
// record whose fields hold whole item sequences — NOT nested tuples — which
// is what keeps the paper's GroupBy rewriting local.
#ifndef XQC_RUNTIME_TUPLE_H_
#define XQC_RUNTIME_TUPLE_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/base/symbol.h"
#include "src/xml/item.h"

namespace xqc {

/// A tuple [q1:S(i1); ...; qn:S(in)]. Field count is small (bounded by the
/// number of in-scope variables), so storage is a flat vector with linear
/// lookup on interned symbols (integer compares). Field values are shared
/// immutably: copying tuples — the bread and butter of MapConcat / Product /
/// Join — copies pointers, not item sequences. The one exception is Take,
/// which empties a field whose storage no other tuple shares.
class Tuple {
 public:
  Tuple() = default;

  /// Sets (or overwrites) a field.
  void Set(Symbol field, Sequence value) {
    auto shared = std::make_shared<Sequence>(std::move(value));
    for (auto& [f, v] : entries_) {
      if (f == field) {
        v = std::move(shared);
        return;
      }
    }
    entries_.emplace_back(field, std::move(shared));
  }

  /// Returns the field's value or nullptr.
  const Sequence* Get(Symbol field) const {
    for (const auto& [f, v] : entries_) {
      if (f == field) return v.get();
    }
    return nullptr;
  }

  /// Hands the field's value to the caller: moved out (leaving the field
  /// present but empty) when this tuple holds the only reference to its
  /// storage, copied when a tuple copy (Concat, Product, Join) shares it.
  /// Empty if the field is absent. Only a read that no other operator of
  /// the query repeats may take (Op::consume, eval.h's EvalCtx).
  Sequence Take(Symbol field) {
    for (auto& [f, v] : entries_) {
      if (f != field) continue;
      if (v.use_count() != 1) return *v;
      Sequence out = std::move(*v);
      v->clear();
      return out;
    }
    return Sequence{};
  }

  bool Has(Symbol field) const { return Get(field) != nullptr; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<Symbol, std::shared_ptr<Sequence>>>& entries()
      const {
    return entries_;
  }

  /// Tuple concatenation t1 ++ t2. Duplicate fields keep t1's value: after
  /// the (map through group-by) rewriting, dependent streams legitimately
  /// carry the input tuple's fields again with identical values.
  static Tuple Concat(const Tuple& a, const Tuple& b) {
    Tuple out = a;
    out.entries_.reserve(a.entries_.size() + b.entries_.size());
    for (const auto& [f, v] : b.entries_) {
      if (!out.Has(f)) out.entries_.emplace_back(f, v);
    }
    return out;
  }

 private:
  std::vector<std::pair<Symbol, std::shared_ptr<Sequence>>> entries_;
};

/// A table: an ordered sequence of tuples.
using Table = std::vector<Tuple>;

}  // namespace xqc

#endif  // XQC_RUNTIME_TUPLE_H_
