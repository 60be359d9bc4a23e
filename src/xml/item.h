// Items and sequences: the value universe of the logical data model
// (Section 3 of the paper). An XML value is an ordered sequence of items;
// an item is an atomic value or a node.
#ifndef XQC_XML_ITEM_H_
#define XQC_XML_ITEM_H_

#include <string>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/xml/atomic.h"
#include "src/xml/node.h"

namespace xqc {

/// One item of the XQuery data model.
class Item {
 public:
  Item() : v_(AtomicValue()) {}
  Item(AtomicValue a) : v_(std::move(a)) {}  // NOLINT: implicit by design
  Item(NodePtr n) : v_(std::move(n)) {}      // NOLINT: implicit by design

  bool IsAtomic() const { return std::holds_alternative<AtomicValue>(v_); }
  bool IsNode() const { return !IsAtomic(); }

  const AtomicValue& atomic() const { return std::get<AtomicValue>(v_); }
  const NodePtr& node() const { return std::get<NodePtr>(v_); }
  /// Moves the node reference out, leaving this item holding a null node
  /// (for constructors that adopt their content; see construct.h).
  NodePtr TakeNode() { return std::move(std::get<NodePtr>(v_)); }

  /// The item's string value (lexical form for atomics, string-value for
  /// nodes).
  std::string StringValue() const;

 private:
  std::variant<AtomicValue, NodePtr> v_;
};

/// An XML value: an ordered sequence of items.
using Sequence = std::vector<Item>;

/// Appends `src` to `dst`.
void Extend(Sequence* dst, const Sequence& src);
void Extend(Sequence* dst, Sequence&& src);

/// Atomization (fn:data). Nodes yield their typed value: untyped nodes give
/// xdt:untypedAtomic; nodes whose schema annotation names a built-in atomic
/// type (e.g. a Validate-annotated attribute of type xs:decimal) are cast to
/// that type. Atomic items pass through.
Result<Sequence> Atomize(const Sequence& s);

/// Effective boolean value (fn:boolean). Error FORG0006 for sequences that
/// have no EBV.
Result<bool> EffectiveBooleanValue(const Sequence& s);

/// Sorts node items into document order and removes duplicates
/// (fs:distinct-docorder). Error XPTY0004 if any item is atomic.
Result<Sequence> DistinctDocOrder(const Sequence& s);

/// True if the two sequences are identical: same length, pairwise items are
/// either the same node (pointer identity) or strictly equal atomics.
bool DeepEqualsIdentity(const Sequence& a, const Sequence& b);

}  // namespace xqc

#endif  // XQC_XML_ITEM_H_
