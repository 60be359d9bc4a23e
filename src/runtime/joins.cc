#include "src/runtime/joins.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "src/base/strutil.h"
#include "src/types/compare.h"

namespace xqc {
namespace {

/// One hash-table entry: the inner tuple's ordinal position plus where its
/// ORIGINAL key values (before promotion, one per key component) are stored
/// (Figure 6 stores (key, typeof(key), tup, order); the tuple itself is
/// recovered from the table by index).
struct Entry {
  size_t order;
  size_t originals;  // offset into MaterializedInner's originals store
};

/// Key enumeration per mode: the general Figure 6 promotion, or the
/// statically specialized single-entry representations (key_class.h).
void AppendKeys(const AtomicValue& v, KeyMode mode,
                std::vector<JoinKey>* out) {
  switch (mode) {
    case KeyMode::kGeneralKeys: {
      std::vector<JoinKey> keys = PromoteToSimpleTypes(v);
      out->insert(out->end(), keys.begin(), keys.end());
      return;
    }
    case KeyMode::kStringKeys:
      out->push_back(JoinKey{AtomicType::kString, v.Lexical()});
      return;
    case KeyMode::kDoubleKeys: {
      double d;
      if (v.is_numeric()) {
        d = v.AsDouble();
      } else if (v.type() == AtomicType::kUntypedAtomic ||
                 v.type() == AtomicType::kString) {
        if (!ParseDouble(v.AsString(), &d)) return;  // never comparable
      } else {
        return;
      }
      if (std::isnan(d)) return;
      out->push_back(NumericJoinKey(d));
      return;
    }
    case KeyMode::kNoMatch:
      return;
  }
}

/// The promoted keys of one key component: (promoted key, original value)
/// pairs over every atomized value of the component's key sequence.
using Candidates = std::vector<std::pair<JoinKey, const AtomicValue*>>;

void PromoteComponent(const Sequence& values, KeyMode mode,
                      std::vector<JoinKey>* scratch, Candidates* out) {
  out->clear();
  for (const Item& key : values) {
    const AtomicValue& v = key.atomic();
    scratch->clear();
    AppendKeys(v, mode, scratch);
    for (JoinKey& jk : *scratch) out->emplace_back(std::move(jk), &v);
  }
}

/// Calls `fn(key, originals)` once per combination of the components'
/// promoted keys. A one-component key is its promoted key itself; longer
/// ones are encoded injectively as (type, length, canon) runs.
template <typename Fn>
Status ForEachCombination(const std::vector<Candidates>& parts, Fn fn) {
  for (const Candidates& c : parts) {
    if (c.empty()) return Status::OK();
  }
  if (parts.size() == 1) {
    for (const auto& [jk, v] : parts[0]) {
      const AtomicValue* one[1] = {v};
      XQC_RETURN_IF_ERROR(fn(jk, one));
    }
    return Status::OK();
  }
  std::vector<size_t> at(parts.size(), 0);
  std::vector<const AtomicValue*> originals(parts.size());
  JoinKey composite;
  while (true) {
    composite.type = AtomicType::kString;
    composite.canon.clear();
    for (size_t i = 0; i < parts.size(); i++) {
      const auto& [jk, v] = parts[i][at[i]];
      uint32_t len = static_cast<uint32_t>(jk.canon.size());
      composite.canon.push_back(static_cast<char>(jk.type));
      composite.canon.append(reinterpret_cast<const char*>(&len),
                             sizeof(len));
      composite.canon += jk.canon;
      originals[i] = v;
    }
    XQC_RETURN_IF_ERROR(fn(composite, originals.data()));
    size_t i = parts.size();
    while (i > 0) {
      i--;
      if (++at[i] < parts[i].size()) break;
      at[i] = 0;
      if (i == 0) return Status::OK();
    }
  }
}

}  // namespace

/// The materialized inner side: a hash index or an ordered (B-tree style)
/// index over the same (value, type) key space, one mode per component.
class MaterializedInner {
 public:
  MaterializedInner(bool ordered, std::vector<KeyMode> modes)
      : ordered_(ordered), modes_(std::move(modes)) {}

  size_t arity() const { return modes_.size(); }
  KeyMode mode(size_t i) const { return modes_[i]; }

  void Put(const JoinKey& key, size_t order, const AtomicValue* const* vals) {
    Entry e{order, originals_.size()};
    for (size_t i = 0; i < arity(); i++) originals_.push_back(*vals[i]);
    if (ordered_) {
      tree_[std::make_pair(static_cast<int>(key.type), key.canon)].push_back(
          e);
    } else {
      hash_[key].push_back(e);
    }
  }

  const std::vector<Entry>* Get(const JoinKey& key) const {
    if (ordered_) {
      auto it =
          tree_.find(std::make_pair(static_cast<int>(key.type), key.canon));
      return it == tree_.end() ? nullptr : &it->second;
    }
    auto it = hash_.find(key);
    return it == hash_.end() ? nullptr : &it->second;
  }

  const AtomicValue* originals(const Entry& e) const {
    return &originals_[e.originals];
  }

 private:
  bool ordered_;
  std::vector<KeyMode> modes_;
  std::vector<AtomicValue> originals_;
  std::unordered_map<JoinKey, std::vector<Entry>, JoinKeyHash> hash_;
  std::map<std::pair<int, std::string>, std::vector<Entry>> tree_;
};

// materialize (Figure 6 lines 1-16): index the inner input on every
// combination of (value, type) pairs its keys promote to, remembering
// original values and sequence order.
Result<std::shared_ptr<const MaterializedInner>> MaterializeInner(
    const Table& right, const std::vector<KeyFn>& right_keys,
    bool use_ordered_index, const std::vector<KeyMode>& modes,
    QueryGuard* guard) {
  auto index = std::make_shared<MaterializedInner>(use_ordered_index, modes);
  std::vector<Sequence> values(right_keys.size());
  std::vector<Candidates> parts(right_keys.size());
  std::vector<JoinKey> scratch;
  for (size_t order = 0; order < right.size(); order++) {
    if (guard != nullptr) {
      // One step per indexed row, credited a check-interval at a time
      // (same totals and slow-check cadence as the per-row Check this
      // replaces); memory accounting stays per row so the Nth-allocation
      // injector point is unchanged.
      if (order % static_cast<size_t>(QueryGuard::kCheckInterval) == 0) {
        int64_t chunk = static_cast<int64_t>(right.size() - order);
        if (chunk > QueryGuard::kCheckInterval) {
          chunk = QueryGuard::kCheckInterval;
        }
        XQC_RETURN_IF_ERROR(guard->CheckSteps(chunk));
      }
      XQC_RETURN_IF_ERROR(guard->AccountItems(1));
    }
    for (size_t i = 0; i < right_keys.size(); i++) {
      XQC_ASSIGN_OR_RETURN(values[i], right_keys[i](right[order]));
      PromoteComponent(values[i], modes[i], &scratch, &parts[i]);
    }
    int64_t entries = 0;
    XQC_RETURN_IF_ERROR(ForEachCombination(
        parts, [&](const JoinKey& key, const AtomicValue* const* vals) {
          // Composite keys can multiply out; charge entries past the
          // first so the product stays inside the memory budget.
          if (guard != nullptr && parts.size() > 1 && entries++ > 0) {
            XQC_RETURN_IF_ERROR(guard->AccountItems(1));
          }
          index->Put(key, order, vals);
          return Status::OK();
        }));
  }
  return std::shared_ptr<const MaterializedInner>(std::move(index));
}

Result<std::shared_ptr<const MaterializedInner>> MaterializeInner(
    const Table& right, const KeyFn& right_key, bool use_ordered_index,
    KeyMode mode, QueryGuard* guard) {
  return MaterializeInner(right, std::vector<KeyFn>{right_key},
                          use_ordered_index, std::vector<KeyMode>{mode},
                          guard);
}

namespace {

// allMatches (Figure 6 lines 17-32): probe with each combination of the
// outer keys' promoted keys, re-check every component's original types
// against Table 2 and original values with op:equal, then sort by inner
// order and deduplicate (existential semantics; keeps the sorted order).
Result<std::vector<size_t>> AllMatches(const MaterializedInner& index,
                                       const std::vector<Sequence>& outer) {
  std::vector<size_t> matches;
  std::vector<Candidates> parts(outer.size());
  std::vector<JoinKey> scratch;
  for (size_t i = 0; i < outer.size(); i++) {
    PromoteComponent(outer[i], index.mode(i), &scratch, &parts[i]);
  }
  XQC_RETURN_IF_ERROR(ForEachCombination(
      parts, [&](const JoinKey& key, const AtomicValue* const* vals) {
        const std::vector<Entry>* entries = index.Get(key);
        if (entries == nullptr) return Status::OK();
        for (const Entry& e : *entries) {
          const AtomicValue* orig = index.originals(e);
          bool all = true;
          for (size_t i = 0; all && i < index.arity(); i++) {
            if (!ConvertCompatible(orig[i].type(), vals[i]->type())) {
              all = false;
              break;
            }
            Result<bool> eq =
                ValueCompareAtomic(CompOp::kEq, orig[i], *vals[i]);
            // Incomparable pairs are non-matches (the same join-compatible
            // relaxation GeneralCompare applies).
            all = eq.ok() && eq.value();
          }
          if (all) matches.push_back(e.order);
        }
        return Status::OK();
      }));
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

}  // namespace

Tuple NullRow(Symbol null_field, bool is_null, const Tuple& base) {
  Tuple flag;
  flag.Set(null_field, {AtomicValue::Boolean(is_null)});
  return Tuple::Concat(flag, base);
}

Status NestedLoopProbe(const Tuple& left, const Table& right,
                       const PredFn& pred, bool outer, Symbol null_field,
                       Table* out) {
  bool matched = false;
  for (const Tuple& r : right) {
    Tuple joined = Tuple::Concat(left, r);
    XQC_ASSIGN_OR_RETURN(bool hit, pred(joined));
    if (!hit) continue;
    matched = true;
    if (outer) {
      out->push_back(NullRow(null_field, false, joined));
    } else {
      out->push_back(std::move(joined));
    }
  }
  if (outer && !matched) {
    out->push_back(NullRow(null_field, true, left));
  }
  return Status::OK();
}

Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const PredFn& pred, bool outer,
                             Symbol null_field) {
  Table out;
  for (const Tuple& l : left) {
    XQC_RETURN_IF_ERROR(NestedLoopProbe(l, right, pred, outer, null_field,
                                        &out));
  }
  return out;
}

Status EqualityProbe(const Tuple& left, const std::vector<Sequence>& left_keys,
                     const Table& right, const MaterializedInner& inner,
                     bool outer, Symbol null_field, const PredFn* residual,
                     Table* out) {
  XQC_ASSIGN_OR_RETURN(std::vector<size_t> matches,
                       AllMatches(inner, left_keys));
  bool any = false;
  for (size_t m : matches) {
    Tuple joined = Tuple::Concat(left, right[m]);
    if (residual != nullptr) {
      XQC_ASSIGN_OR_RETURN(bool keep, (*residual)(joined));
      if (!keep) continue;
    }
    any = true;
    if (outer) {
      out->push_back(NullRow(null_field, false, joined));
    } else {
      out->push_back(std::move(joined));
    }
  }
  if (outer && !any) {
    out->push_back(NullRow(null_field, true, left));
  }
  return Status::OK();
}

Result<Table> EqualityJoinWithIndex(const Table& left, const KeyFn& left_key,
                                    const Table& right,
                                    const MaterializedInner& inner, bool outer,
                                    Symbol null_field,
                                    const PredFn* residual) {
  // equalityJoin (Figure 6 lines 33-49): the left input probes in order.
  Table out;
  std::vector<Sequence> keys(1);
  for (const Tuple& l : left) {
    XQC_ASSIGN_OR_RETURN(keys[0], left_key(l));
    XQC_RETURN_IF_ERROR(EqualityProbe(l, keys, right, inner, outer,
                                      null_field, residual, &out));
  }
  return out;
}

Result<Table> EqualityJoin(const Table& left, const KeyFn& left_key,
                           const Table& right, const KeyFn& right_key,
                           bool outer, Symbol null_field,
                           bool use_ordered_index, const PredFn* residual) {
  XQC_ASSIGN_OR_RETURN(std::shared_ptr<const MaterializedInner> inner,
                       MaterializeInner(right, right_key, use_ordered_index));
  return EqualityJoinWithIndex(left, left_key, right, *inner, outer,
                               null_field, residual);
}

// ---- inequality (range) sort join -------------------------------------------

/// The inner side materialized as ordered lists, one per comparison domain:
/// numerics by double value (typed numerics and parseable untyped
/// separately, since untyped-vs-untyped compares as string), and one
/// lexically ordered list per non-numeric type (untyped raw strings under
/// xdt:untypedAtomic).
class MaterializedRangeInner {
 public:
  using OrderedList = std::vector<std::pair<double, size_t>>;
  using LexList = std::vector<std::pair<std::string, size_t>>;

  OrderedList num_typed;    // xs:integer/decimal/float/double keys
  OrderedList num_untyped;  // untyped keys that parse as numbers
  std::map<AtomicType, LexList> lex;  // per-type lexical lists

  void Sort() {
    std::sort(num_typed.begin(), num_typed.end());
    std::sort(num_untyped.begin(), num_untyped.end());
    for (auto& [t, list] : lex) std::sort(list.begin(), list.end());
  }
};

Result<std::shared_ptr<const MaterializedRangeInner>> MaterializeRangeInner(
    const Table& right, const KeyFn& right_key, QueryGuard* guard) {
  auto inner = std::make_shared<MaterializedRangeInner>();
  for (size_t order = 0; order < right.size(); order++) {
    if (guard != nullptr) {
      // Chunked step crediting, as in MaterializeInner above.
      if (order % static_cast<size_t>(QueryGuard::kCheckInterval) == 0) {
        int64_t chunk = static_cast<int64_t>(right.size() - order);
        if (chunk > QueryGuard::kCheckInterval) {
          chunk = QueryGuard::kCheckInterval;
        }
        XQC_RETURN_IF_ERROR(guard->CheckSteps(chunk));
      }
      XQC_RETURN_IF_ERROR(guard->AccountItems(1));
    }
    XQC_ASSIGN_OR_RETURN(Sequence key_vals, right_key(right[order]));
    for (const Item& key : key_vals) {
      const AtomicValue& v = key.atomic();
      if (v.is_numeric()) {
        double d = v.AsDouble();
        if (!std::isnan(d)) inner->num_typed.emplace_back(d, order);
        continue;
      }
      if (v.type() == AtomicType::kUntypedAtomic) {
        inner->lex[AtomicType::kUntypedAtomic].emplace_back(v.AsString(),
                                                            order);
        double d;
        if (ParseDouble(v.AsString(), &d) && !std::isnan(d)) {
          inner->num_untyped.emplace_back(d, order);
        }
        continue;
      }
      AtomicType bucket =
          v.type() == AtomicType::kAnyURI ? AtomicType::kString : v.type();
      inner->lex[bucket].emplace_back(v.Lexical(), order);
    }
  }
  inner->Sort();
  return std::shared_ptr<const MaterializedRangeInner>(std::move(inner));
}

namespace {

/// Appends the orders of all entries r in `list` satisfying `key OP r`.
template <typename K, typename L>
void RangeScan(const L& list, CompOp op, const K& key,
               std::vector<size_t>* out) {
  auto lo = list.begin();
  auto hi = list.end();
  switch (op) {
    case CompOp::kLt:  // key < r  =>  r in (key, +inf)
      lo = std::upper_bound(list.begin(), list.end(), key,
                            [](const K& k, const auto& e) { return k < e.first; });
      break;
    case CompOp::kLe:  // key <= r  =>  r in [key, +inf)
      lo = std::lower_bound(list.begin(), list.end(), key,
                            [](const auto& e, const K& k) { return e.first < k; });
      break;
    case CompOp::kGt:  // key > r  =>  r in (-inf, key)
      hi = std::lower_bound(list.begin(), list.end(), key,
                            [](const auto& e, const K& k) { return e.first < k; });
      break;
    case CompOp::kGe:  // key >= r  =>  r in (-inf, key]
      hi = std::upper_bound(list.begin(), list.end(), key,
                            [](const K& k, const auto& e) { return k < e.first; });
      break;
    default:
      return;
  }
  for (auto it = lo; it != hi; ++it) out->push_back(it->second);
}

}  // namespace

Status InequalityProbe(const Tuple& left, const Sequence& left_keys,
                       const Table& right, const MaterializedRangeInner& inner,
                       CompOp op, bool outer, Symbol null_field,
                       const PredFn* residual, Table* out) {
  auto lex_list = [&inner](AtomicType t) -> const MaterializedRangeInner::LexList* {
    auto it = inner.lex.find(t);
    return it == inner.lex.end() ? nullptr : &it->second;
  };
  std::vector<size_t> matches;
  for (const Item& key : left_keys) {
    const AtomicValue& v = key.atomic();
    if (v.is_numeric()) {
      double d = v.AsDouble();
      if (std::isnan(d)) continue;
      // Numeric probe: typed numerics and untyped-cast-to-double.
      RangeScan(inner.num_typed, op, d, &matches);
      RangeScan(inner.num_untyped, op, d, &matches);
      continue;
    }
    if (v.type() == AtomicType::kUntypedAtomic) {
      // Untyped vs numeric inner: cast to double.
      double d;
      if (ParseDouble(v.AsString(), &d) && !std::isnan(d)) {
        RangeScan(inner.num_typed, op, d, &matches);
      }
      // Untyped vs any lexical inner type T: convert to T (= trim in our
      // lexical model) and compare lexically; untyped-vs-untyped is the
      // xs:string row of Table 2.
      for (const auto& [t, list] : inner.lex) {
        RangeScan(list, op, v.AsString(), &matches);
      }
      continue;
    }
    AtomicType bucket =
        v.type() == AtomicType::kAnyURI ? AtomicType::kString : v.type();
    std::string lexv = v.Lexical();
    if (const auto* same = lex_list(bucket)) {
      RangeScan(*same, op, lexv, &matches);
    }
    if (const auto* unt = lex_list(AtomicType::kUntypedAtomic)) {
      RangeScan(*unt, op, lexv, &matches);  // untyped inner converts to T
    }
  }
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  bool any = false;
  for (size_t m : matches) {
    Tuple joined = Tuple::Concat(left, right[m]);
    if (residual != nullptr) {
      XQC_ASSIGN_OR_RETURN(bool keep, (*residual)(joined));
      if (!keep) continue;
    }
    any = true;
    if (outer) {
      out->push_back(NullRow(null_field, false, joined));
    } else {
      out->push_back(std::move(joined));
    }
  }
  if (outer && !any) {
    out->push_back(NullRow(null_field, true, left));
  }
  return Status::OK();
}

Result<Table> InequalityJoinWithIndex(const Table& left, const KeyFn& left_key,
                                      const Table& right,
                                      const MaterializedRangeInner& inner,
                                      CompOp op, bool outer, Symbol null_field,
                                      const PredFn* residual) {
  Table out;
  for (const Tuple& l : left) {
    XQC_ASSIGN_OR_RETURN(Sequence keys, left_key(l));
    XQC_RETURN_IF_ERROR(InequalityProbe(l, keys, right, inner, op, outer,
                                        null_field, residual, &out));
  }
  return out;
}

}  // namespace xqc
