// XML node trees: the node half of the XQuery data model.
//
// Nodes carry a schema type annotation (set by the Validate operator) that
// TypeMatches / TypeAssert consume — this is what lets the paper's Q8
// variant write `count($a/element(*,USSeller))`.
#ifndef XQC_XML_NODE_H_
#define XQC_XML_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/symbol.h"

namespace xqc {

enum class NodeKind : uint8_t {
  kDocument,
  kElement,
  kAttribute,
  kText,
  kComment,
  kPI,
};

struct Node;
using NodePtr = std::shared_ptr<Node>;
class DocumentIndex;  // doc_index.h: lazily built structural index

/// A node in an XML tree. Children and attributes are owned via shared_ptr;
/// the parent link is a raw back-pointer (valid while the tree is alive).
struct Node : std::enable_shared_from_this<Node> {
  NodeKind kind = NodeKind::kElement;
  Symbol name;             // element name / attribute name / PI target
  std::string value;       // text / comment / attribute / PI content
  Symbol type_annotation;  // schema type (empty = untyped)
  Node* parent = nullptr;
  std::vector<NodePtr> attributes;  // elements only
  std::vector<NodePtr> children;    // document / element only

  /// Interval numbering (set by FinalizeTree; 0 = unassigned). Each
  /// finalized tree occupies a contiguous, globally unique id block:
  /// `start` is the node's preorder id (attributes numbered after their
  /// element, before its children) and `end` is the largest `start` in the
  /// node's subtree (inclusive; == start for leaves and attributes). This
  /// makes document-order comparison (`a.start < b.start`, valid across
  /// trees) and ancestor/descendant containment
  /// (`a.start < d.start && d.start <= a.end`) O(1) integer tests.
  uint64_t start = 0;
  uint64_t end = 0;

  /// Root-only slots for the lazily built DocumentIndex (doc_index.h).
  /// `doc_index` owns the index; `doc_index_hint` is the double-checked
  /// fast-path pointer (acquire-load; set once, after the owner slot, under
  /// the build lock). Cleared by FinalizeTree. Treat as private to
  /// doc_index.cc / node.cc.
  std::shared_ptr<const DocumentIndex> doc_index;
  std::atomic<const DocumentIndex*> doc_index_hint{nullptr};

  /// The typed-value-relevant string value: concatenation of descendant
  /// text for documents/elements; `value` otherwise.
  std::string StringValue() const;

  /// Root of the tree containing this node.
  Node* Root();

  /// O(1) containment: is `d` a strict descendant of this node? Both nodes
  /// must belong to the same finalized tree (or any finalized trees —
  /// blocks are globally disjoint, so cross-tree queries answer false).
  bool ContainsStrict(const Node& d) const {
    return start < d.start && d.start <= end;
  }

  /// Number of nodes in this subtree (self + attributes + descendants);
  /// meaningful only after FinalizeTree.
  uint64_t SubtreeSize() const { return end - start + 1; }
};

/// Builders. The returned nodes are detached; call FinalizeTree on the root
/// to fix parent pointers and assign global document order.
NodePtr NewDocument();
NodePtr NewElement(Symbol name);
NodePtr NewAttribute(Symbol name, std::string value);
NodePtr NewText(std::string value);
NodePtr NewComment(std::string value);
NodePtr NewPI(Symbol target, std::string value);

/// Appends a child (or attribute node) under `parent`, setting the back
/// pointer. Attribute nodes go to `attributes`, all others to `children`.
void Append(const NodePtr& parent, NodePtr child);

/// Walks the tree in document order, setting parent pointers and assigning
/// fresh interval numbers (see Node::start/end) from a contiguous, globally
/// increasing id block, so nodes of distinct trees compare by their tree's
/// finalization order. Invalidates any DocumentIndex built for the tree.
/// Safe to call repeatedly; must not race with readers of the tree.
/// Sizing the id block trusts the numbering of already-finalized subtrees
/// below the root (Node::SubtreeSize), so a finalized subtree may gain a
/// new parent but must not itself be mutated before it is re-finalized.
void FinalizeTree(const NodePtr& root);

/// Reserves a contiguous block of `count` interval ids from the same
/// process-global sequence FinalizeTree draws from and returns the first id
/// of the block. Used by deserializers (the snapshot tier) that already
/// know every node's tree-relative preorder position: assigning
/// `start = base + rel` reproduces exactly what FinalizeTree would have
/// computed, without a second walk, and the block stays disjoint from every
/// other finalized tree's.
uint64_t AllocateOrderBlock(uint64_t count);

/// Deep copy of a subtree. The copy is detached and unfinalized (every
/// node's start is 0); type annotations are preserved iff `keep_types`.
NodePtr DeepCopy(const Node& node, bool keep_types);

/// Total order on nodes consistent with document order; nodes from distinct
/// trees compare by their tree's finalization order.
bool DocOrderLess(const Node* a, const Node* b);

}  // namespace xqc

#endif  // XQC_XML_NODE_H_
