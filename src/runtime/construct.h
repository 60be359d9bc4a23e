// Node construction semantics shared by the Element/Attribute/Text/...
// algebra operators and the baseline interpreter.
//
// Unlike the serializing Ξ operator of May et al. (which the paper
// explicitly rejects as non-compositional, Section 3), these build real
// nodes that later operators can navigate into.
#ifndef XQC_RUNTIME_CONSTRUCT_H_
#define XQC_RUNTIME_CONSTRUCT_H_

#include <cstdint>

#include "src/base/guard.h"
#include "src/base/status.h"
#include "src/xml/item.h"

namespace xqc {

/// Per-call node counts of the two routes a content node can take into a
/// constructed tree (summed into ExecStats::nodes_copied / nodes_adopted).
/// Both count whole subtrees, attributes included, so their sum is the
/// number of content nodes charged to the guard.
struct ConstructCounts {
  int64_t nodes_copied = 0;
  int64_t nodes_adopted = 0;
};

/// Builds an element from evaluated content: leading attribute nodes become
/// attributes (an attribute after other content raises XQTY0024); atomic
/// runs join into text nodes separated by single spaces; adjacent text
/// nodes merge; document nodes splice their children. The result is
/// finalized (fresh document order), construction mode "preserve" (type
/// annotations kept).
///
/// Copy elision. XQuery gives constructed content fresh node identity, but
/// a copy is only observable through another reference to the original.
/// So a content node enters the new tree by one of two routes:
///   - adopted (moved in as is): a parentless root whose only strong
///     reference is its item in `content` (use_count() == 1). A uniquely
///     held document node likewise gives up each uniquely held child. The
///     new parent's FinalizeTree renumbers the adopted subtree.
///   - deep-copied: every other node — one inside some tree (its parent
///     holds it), or one a variable, tuple field, index or the caller
///     still references.
/// Content is taken by value for this reason: a caller that keeps its own
/// copy of the sequence shares every node and gets the copying behaviour.
/// The algebra evaluator hands a tuple field over to a constructor by move
/// when the read is the field's only one in the query, the loop evaluating
/// it owns the tuple, and no tuple copy shares the field (Op::consume,
/// EvalCtx::owned_tuple, Tuple::Take). So results of nested blocks are
/// adopted level by level instead of being copied once per enclosing
/// constructor.
///
/// The optional guard (non-owning, nullptr = unlimited) is charged for
/// every node the constructor materializes — one Check() plus
/// AccountNodes(subtree size) per content node, whichever route it takes —
/// so unbounded construction trips the query's memory budget, and trip
/// points do not depend on copy elision. `counts` (optional) accumulates
/// the per-route totals.
Result<NodePtr> ConstructElement(Symbol name, Sequence content,
                                 QueryGuard* guard = nullptr,
                                 ConstructCounts* counts = nullptr);

/// Builds an attribute node; content atomizes and joins with spaces.
Result<NodePtr> ConstructAttribute(Symbol name, const Sequence& content,
                                   QueryGuard* guard = nullptr);

/// Builds a text node; returns empty sequence semantics via nullptr when
/// the content is empty.
Result<NodePtr> ConstructText(const Sequence& content,
                              QueryGuard* guard = nullptr);

Result<NodePtr> ConstructComment(const Sequence& content,
                                 QueryGuard* guard = nullptr);
Result<NodePtr> ConstructPI(Symbol target, const Sequence& content,
                            QueryGuard* guard = nullptr);
/// Builds a document node; content is placed as for ConstructElement
/// (attribute nodes raise XPTY0004).
Result<NodePtr> ConstructDocument(Sequence content,
                                  QueryGuard* guard = nullptr,
                                  ConstructCounts* counts = nullptr);

}  // namespace xqc

#endif  // XQC_RUNTIME_CONSTRUCT_H_
