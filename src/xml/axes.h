// XPath axes: the navigation primitive behind the TreeJoin operator.
// TreeJoin is set-at-a-time: it takes nodes in document order and returns
// the axis/test result in document order with duplicates removed.
//
// The distinct-doc-order obligation is discharged as cheaply as possible:
// the optimizer can prove it away statically (DdoMode, inferred in
// src/opt/ddo_infer.h), a singleton input discharges it dynamically (every
// axis emits a single node's result in document order), and otherwise a
// linear sortedness check elides the O(n log n) sort whenever the
// concatenated output happens to be ordered already. Descendant and
// following/preceding steps additionally use the per-document structural
// index (doc_index.h) instead of walking whole subtrees.
#ifndef XQC_XML_AXES_H_
#define XQC_XML_AXES_H_

#include <string>

#include "src/base/guard.h"
#include "src/base/status.h"
#include "src/types/seqtype.h"
#include "src/xml/item.h"

namespace xqc {

enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kAttribute,
  kSelf,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
};

const char* AxisName(Axis a);  // "child", "descendant", ...
bool AxisFromName(std::string_view name, Axis* out);

/// Statically inferred way to establish a TreeJoin's distinct-doc-order
/// postcondition (annotated on kTreeJoin ops by AnnotateDdo, src/opt/).
enum class DdoMode : uint8_t {
  kSort,   // no static guarantee: verify or sort at runtime
  kDedup,  // output provably ordered; adjacent duplicates possible
  kSkip,   // output provably distinct and ordered: nothing to do
};

/// Counters for the sort-elision and index machinery (merged into
/// ExecStats::tree_join by the evaluator; observable by tests/benches).
struct TreeJoinStats {
  int64_t ddo_sorts = 0;          // full DistinctDocOrder sorts performed
  int64_t ddo_dedups = 0;         // linear adjacent dedups (DdoMode::kDedup)
  int64_t ddo_skip_static = 0;    // elided via optimizer annotation
  int64_t ddo_skip_singleton = 0; // elided via runtime singleton input
  int64_t ddo_skip_verified = 0;  // elided via linear sortedness check
  int64_t index_lookups = 0;      // DocumentIndex range scans used

  /// this += k * o, field by field.
  void Add(const TreeJoinStats& o, int64_t k = 1) {
    ddo_sorts += k * o.ddo_sorts;
    ddo_dedups += k * o.ddo_dedups;
    ddo_skip_static += k * o.ddo_skip_static;
    ddo_skip_singleton += k * o.ddo_skip_singleton;
    ddo_skip_verified += k * o.ddo_skip_verified;
    index_lookups += k * o.index_lookups;
  }
};

/// Per-execution knobs for TreeJoin/ApplyAxis.
struct TreeJoinOpts {
  DdoMode ddo = DdoMode::kSort;  // static annotation of this step
  bool force_sort = false;       // always sort (baseline / oracle mode)
  bool use_index = true;         // consult/build the DocumentIndex
  /// The executing query's guard, checked during a lazy DocumentIndex
  /// build so a deadline/cancellation can trip mid-build on a large tree.
  /// nullptr = unlimited.
  QueryGuard* guard = nullptr;
};

/// Applies `axis` from a single node, appending matches of `test` to `out`
/// in document order. Fails only when a lazy index build trips
/// `opts.guard` (Status::ResourceExhausted).
Status ApplyAxis(const NodePtr& n, Axis axis, const ItemTest& test,
                 const Schema* schema, Sequence* out,
                 const TreeJoinOpts& opts = {}, TreeJoinStats* stats = nullptr);

/// The TreeJoin operator: applies the axis step to every node of `input`
/// and returns the result in document order without duplicates.
/// Error XPTY0004 if an input item is not a node.
Result<Sequence> TreeJoin(const Sequence& input, Axis axis,
                          const ItemTest& test, const Schema* schema,
                          const TreeJoinOpts& opts = {},
                          TreeJoinStats* stats = nullptr);

}  // namespace xqc

#endif  // XQC_XML_AXES_H_
