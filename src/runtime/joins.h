// The paper's XQuery join algorithms (Section 6, Figure 6).
//
// The hash join builds a hash table over the inner (right) input keyed on
// (value, type) pairs enumerated by promoteToSimpleTypes, probes with the
// outer (left) input, re-checks the original types against Table 2
// (fs:convert-operand compatibility), sorts matches by original inner
// sequence order and removes duplicates — preserving order and the
// existential quantification of XQuery general comparisons.
//
// Beyond the paper's type-level line-25 check we also re-verify op:equal on
// the stored ORIGINAL (value, type) pairs: the type check alone would admit
// untyped-vs-untyped pairs that collide on their xs:double keys but differ
// as strings (e.g. "1" vs "1.0"), which Table 2 row 1 compares as strings.
// The paper stores the original value and type in each hash entry for
// exactly this purpose.
#ifndef XQC_RUNTIME_JOINS_H_
#define XQC_RUNTIME_JOINS_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/guard.h"
#include "src/base/status.h"
#include "src/opt/key_class.h"
#include "src/runtime/tuple.h"
#include "src/types/compare.h"

namespace xqc {

/// Evaluates one side's join-key expression on a tuple, atomized (fn:data).
using KeyFn = std::function<Result<Sequence>(const Tuple&)>;
/// Evaluates the full join predicate on a concatenated tuple (NL join).
using PredFn = std::function<Result<bool>(const Tuple&)>;

/// Order-preserving nested-loop join: left-major order, right order within.
/// With `outer` set, emits [null_field:true]++left_tuple for unmatched left
/// tuples and prepends [null_field:false] otherwise (LOuterJoin semantics).
Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const PredFn& pred, bool outer,
                             Symbol null_field);

/// The Figure 6 equality hash join (use_ordered_index=false) or its
/// B-tree-style ordered-index variant (use_ordered_index=true). Implements
/// `=` (general equality) between the two key expressions with full XQuery
/// predicate semantics. A non-null `residual` predicate (the remaining
/// conjuncts of a multi-predicate join) filters each candidate joined tuple;
/// outer-join null rows are emitted only when no candidate survives it.
/// Same output contract as NestedLoopJoin.
Result<Table> EqualityJoin(const Table& left, const KeyFn& left_key,
                           const Table& right, const KeyFn& right_key,
                           bool outer, Symbol null_field,
                           bool use_ordered_index,
                           const PredFn* residual = nullptr);

/// A materialized inner side (the hash table / ordered index of Figure 6),
/// reusable across probes. The paper's physical operators are index joins:
/// an independent inner input's index is built once and kept (the
/// evaluator caches these across re-executions of correlated subplans).
///
/// The index may be keyed on several equality conjuncts at once (Section
/// 6's "can be extended to multiple predicates"): a composite key is one
/// promoted (value, type) pair per conjunct, every combination of the
/// conjuncts' promoted keys is indexed, and a candidate matches only when
/// every component re-verifies against its stored original under Table 2.
/// Because each conjunct is existential on its own, a left tuple matches
/// an inner tuple iff some combination collides on all components.
class MaterializedInner;

/// `modes` (one per key component) select the key representation (see
/// key_class.h): the general promoteToSimpleTypes enumeration, or the
/// statically specialized single-entry string/double keys. Build and probe
/// must use the SAME modes. The optional guard (non-owning) is checked and
/// charged per indexed row (plus one item per extra composite entry), so
/// adversarially large build sides honor deadlines and budgets.
Result<std::shared_ptr<const MaterializedInner>> MaterializeInner(
    const Table& right, const std::vector<KeyFn>& right_keys,
    bool use_ordered_index, const std::vector<KeyMode>& modes,
    QueryGuard* guard = nullptr);

/// Single-key convenience form (the paper's one-predicate index).
Result<std::shared_ptr<const MaterializedInner>> MaterializeInner(
    const Table& right, const KeyFn& right_key, bool use_ordered_index,
    KeyMode mode = KeyMode::kGeneralKeys, QueryGuard* guard = nullptr);

/// EqualityJoin against a prebuilt single-key inner index. `right` must be
/// the table the index was built from.
Result<Table> EqualityJoinWithIndex(const Table& left, const KeyFn& left_key,
                                    const Table& right,
                                    const MaterializedInner& inner, bool outer,
                                    Symbol null_field,
                                    const PredFn* residual = nullptr);

/// The inequality (range) variant of the Section 6 sort join: an ordered
/// index over the inner keys (numerics ordered by value with untyped cast
/// through xs:double; strings/untyped ordered lexically) probed with range
/// scans. Implements `left_key OP right_key` existentially with
/// fs:convert-operand semantics, order-preserving and duplicate-free like
/// EqualityJoin. OP must be one of lt/le/gt/ge. This is what gives XMark
/// Q11/Q12 (income > 5000*initial) an indexed plan — the paper's Table 4
/// Q12 row.
class MaterializedRangeInner;

Result<std::shared_ptr<const MaterializedRangeInner>> MaterializeRangeInner(
    const Table& right, const KeyFn& right_key, QueryGuard* guard = nullptr);

Result<Table> InequalityJoinWithIndex(const Table& left, const KeyFn& left_key,
                                      const Table& right,
                                      const MaterializedRangeInner& inner,
                                      CompOp op, bool outer, Symbol null_field,
                                      const PredFn* residual = nullptr);

// ---- per-left-tuple probes --------------------------------------------------
// The whole-table joins above are loops over these: one call appends every
// output row for a single left tuple. JoinIter (iterator.cc), the
// evaluator's only join implementation, materializes the build side and
// probes as its left input is pulled, so early-terminating consumers stop
// the probe stream.

/// An outer operator's row [null_field:is_null] ++ base: is_null marks the
/// unmatched-left row of an outer join or outer map.
Tuple NullRow(Symbol null_field, bool is_null, const Tuple& base);

/// Equality probe with pre-atomized left keys (fn:data already applied),
/// one sequence per key component of `inner`.
Status EqualityProbe(const Tuple& left, const std::vector<Sequence>& left_keys,
                     const Table& right, const MaterializedInner& inner,
                     bool outer, Symbol null_field, const PredFn* residual,
                     Table* out);

/// Range probe with pre-atomized left keys.
Status InequalityProbe(const Tuple& left, const Sequence& left_keys,
                       const Table& right, const MaterializedRangeInner& inner,
                       CompOp op, bool outer, Symbol null_field,
                       const PredFn* residual, Table* out);

/// Nested-loop probe: the full predicate against every right tuple.
Status NestedLoopProbe(const Tuple& left, const Table& right,
                       const PredFn& pred, bool outer, Symbol null_field,
                       Table* out);

}  // namespace xqc

#endif  // XQC_RUNTIME_JOINS_H_
