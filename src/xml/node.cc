#include "src/xml/node.h"

#include <atomic>

namespace xqc {
namespace {

std::atomic<uint64_t> g_order_counter{1};

void CollectText(const Node& n, std::string* out) {
  if (n.kind == NodeKind::kText) {
    *out += n.value;
    return;
  }
  for (const NodePtr& c : n.children) CollectText(*c, out);
}

/// Nodes in the subtree rooted at `n`. A finalized child subtree (one that
/// a constructor adopted whole) answers from its interval numbering.
uint64_t CountNodes(const Node& n) {
  uint64_t total = 1 + n.attributes.size();
  for (const NodePtr& c : n.children) {
    total += c->start != 0 ? c->SubtreeSize() : CountNodes(*c);
  }
  return total;
}

/// Assigns preorder ids from `*next` and returns the subtree's `end` (the
/// largest id assigned within it). Also clears stale DocumentIndex slots:
/// a node that used to be a tree root may now be interior.
uint64_t FinalizeRec(Node* n, Node* parent, uint64_t* next) {
  n->parent = parent;
  n->start = (*next)++;
  if (n->doc_index != nullptr) {
    n->doc_index_hint.store(nullptr, std::memory_order_relaxed);
    n->doc_index.reset();
  }
  uint64_t last = n->start;
  for (const NodePtr& a : n->attributes) {
    a->parent = n;
    a->start = (*next)++;
    a->end = a->start;
    last = a->start;
    if (a->doc_index != nullptr) {
      a->doc_index_hint.store(nullptr, std::memory_order_relaxed);
      a->doc_index.reset();
    }
  }
  for (const NodePtr& c : n->children) {
    last = FinalizeRec(c.get(), n, next);
  }
  n->end = last;
  return last;
}

}  // namespace

std::string Node::StringValue() const {
  switch (kind) {
    case NodeKind::kDocument:
    case NodeKind::kElement: {
      std::string out;
      CollectText(*this, &out);
      return out;
    }
    default:
      return value;
  }
}

Node* Node::Root() {
  Node* n = this;
  while (n->parent != nullptr) n = n->parent;
  return n;
}

NodePtr NewDocument() {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kDocument;
  return n;
}

NodePtr NewElement(Symbol name) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kElement;
  n->name = name;
  return n;
}

NodePtr NewAttribute(Symbol name, std::string value) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kAttribute;
  n->name = name;
  n->value = std::move(value);
  return n;
}

NodePtr NewText(std::string value) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kText;
  n->value = std::move(value);
  return n;
}

NodePtr NewComment(std::string value) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kComment;
  n->value = std::move(value);
  return n;
}

NodePtr NewPI(Symbol target, std::string value) {
  auto n = std::make_shared<Node>();
  n->kind = NodeKind::kPI;
  n->name = target;
  n->value = std::move(value);
  return n;
}

void Append(const NodePtr& parent, NodePtr child) {
  child->parent = parent.get();
  if (child->kind == NodeKind::kAttribute) {
    parent->attributes.push_back(std::move(child));
  } else {
    parent->children.push_back(std::move(child));
  }
}

void FinalizeTree(const NodePtr& root) {
  // Reserve a contiguous id block for the whole tree so every node's
  // subtree is one interval and blocks from distinct trees never overlap.
  uint64_t count = CountNodes(*root);
  uint64_t next = AllocateOrderBlock(count);
  FinalizeRec(root.get(), nullptr, &next);
}

uint64_t AllocateOrderBlock(uint64_t count) {
  return g_order_counter.fetch_add(count, std::memory_order_relaxed);
}

NodePtr DeepCopy(const Node& node, bool keep_types) {
  auto n = std::make_shared<Node>();
  n->kind = node.kind;
  n->name = node.name;
  n->value = node.value;
  if (keep_types) n->type_annotation = node.type_annotation;
  n->attributes.reserve(node.attributes.size());
  for (const NodePtr& a : node.attributes) {
    NodePtr c = DeepCopy(*a, keep_types);
    c->parent = n.get();
    n->attributes.push_back(std::move(c));
  }
  n->children.reserve(node.children.size());
  for (const NodePtr& k : node.children) {
    NodePtr c = DeepCopy(*k, keep_types);
    c->parent = n.get();
    n->children.push_back(std::move(c));
  }
  return n;
}

bool DocOrderLess(const Node* a, const Node* b) { return a->start < b->start; }

}  // namespace xqc
