#include "src/runtime/construct.h"

#include <atomic>

#include "src/base/status.h"

namespace xqc {
namespace {

/// Joins the atomized lexical forms of `content` with single spaces.
Result<std::string> JoinLexical(const Sequence& content) {
  XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(content));
  std::string out;
  for (size_t i = 0; i < atoms.size(); i++) {
    if (i > 0) out.push_back(' ');
    out += atoms[i].atomic().Lexical();
  }
  return out;
}

/// Nodes in the subtree rooted at `n` (for guard accounting; attributes
/// count as nodes). Finalized subtrees answer from their numbering.
int64_t SubtreeNodes(const Node& n) {
  if (n.start != 0) return static_cast<int64_t>(n.SubtreeSize());
  int64_t count = 1 + static_cast<int64_t>(n.attributes.size());
  for (const NodePtr& c : n.children) count += SubtreeNodes(*c);
  return count;
}

/// Is the caller's reference the only strong one to `n`? The acquire fence
/// pairs with the release decrement of a reference dropped on another
/// thread, so that thread's reads of the tree happen before any adopting
/// write.
bool Unshared(const NodePtr& n) {
  if (n.use_count() != 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
}

/// Appends `content` items into `parent` children: atomic runs become text
/// nodes, document nodes splice their children, other nodes are adopted
/// or deep-copied (see ConstructElement).
Status AppendContent(const NodePtr& parent, Sequence content,
                     bool allow_attributes, QueryGuard* guard,
                     ConstructCounts* counts) {
  std::string text;
  bool prev_atomic = false;
  bool seen_non_attribute = false;
  auto flush = [&] {
    if (!text.empty()) {
      Append(parent, NewText(std::move(text)));
      text.clear();
    }
    prev_atomic = false;
  };
  // Places one content node, charged alike on both routes.
  auto place = [&](NodePtr n, bool adopt) -> Status {
    int64_t size = SubtreeNodes(*n);
    if (guard != nullptr) {
      XQC_RETURN_IF_ERROR(guard->Check());
      XQC_RETURN_IF_ERROR(guard->AccountNodes(size));
    }
    if (adopt) {
      if (counts != nullptr) counts->nodes_adopted += size;
      Append(parent, std::move(n));
    } else {
      if (counts != nullptr) counts->nodes_copied += size;
      Append(parent, DeepCopy(*n, /*keep_types=*/true));
    }
    return Status::OK();
  };
  for (Item& it : content) {
    if (it.IsAtomic()) {
      if (prev_atomic) text.push_back(' ');
      text += it.atomic().Lexical();
      prev_atomic = true;
      seen_non_attribute = true;
      continue;
    }
    flush();
    NodePtr n = it.TakeNode();
    switch (n->kind) {
      case NodeKind::kAttribute:
        if (!allow_attributes) {
          return Status::XQueryError("XPTY0004",
                                     "attribute node in document content");
        }
        if (seen_non_attribute) {
          return Status::XQueryError(
              "XQTY0024",
              "attribute node after non-attribute content in constructor");
        }
        break;
      case NodeKind::kDocument: {
        // Document nodes splice their children into the content; a
        // document nobody else holds gives up the children nobody else
        // holds.
        bool own_children = n->parent == nullptr && Unshared(n);
        for (NodePtr& c : n->children) {
          bool adopt = own_children && Unshared(c);
          XQC_RETURN_IF_ERROR(place(adopt ? std::move(c) : c, adopt));
        }
        seen_non_attribute = true;
        continue;
      }
      case NodeKind::kText:
        // Merge adjacent text directly into the pending buffer so runs of
        // text nodes coalesce.
        text += n->value;
        prev_atomic = false;
        seen_non_attribute = true;
        continue;
      default:
        seen_non_attribute = true;
        break;
    }
    bool adopt = n->parent == nullptr && Unshared(n);
    XQC_RETURN_IF_ERROR(place(std::move(n), adopt));
  }
  flush();
  return Status::OK();
}

/// One guard charge for the freshly built wrapper node plus its character
/// data (no-op without a guard).
Status AccountNew(QueryGuard* guard, int64_t bytes) {
  if (guard == nullptr) return Status::OK();
  XQC_RETURN_IF_ERROR(guard->Check());
  XQC_RETURN_IF_ERROR(guard->AccountNodes(1));
  if (bytes > 0) XQC_RETURN_IF_ERROR(guard->AccountMemory(bytes));
  return Status::OK();
}

}  // namespace

Result<NodePtr> ConstructElement(Symbol name, Sequence content,
                                 QueryGuard* guard, ConstructCounts* counts) {
  XQC_RETURN_IF_ERROR(AccountNew(guard, 0));
  NodePtr elem = NewElement(name);
  XQC_RETURN_IF_ERROR(AppendContent(elem, std::move(content),
                                    /*allow_attributes=*/true, guard, counts));
  FinalizeTree(elem);
  return elem;
}

Result<NodePtr> ConstructAttribute(Symbol name, const Sequence& content,
                                   QueryGuard* guard) {
  XQC_ASSIGN_OR_RETURN(std::string value, JoinLexical(content));
  XQC_RETURN_IF_ERROR(AccountNew(guard, static_cast<int64_t>(value.size())));
  NodePtr attr = NewAttribute(name, std::move(value));
  FinalizeTree(attr);
  return attr;
}

Result<NodePtr> ConstructText(const Sequence& content, QueryGuard* guard) {
  if (content.empty()) return NodePtr();
  XQC_ASSIGN_OR_RETURN(std::string value, JoinLexical(content));
  XQC_RETURN_IF_ERROR(AccountNew(guard, static_cast<int64_t>(value.size())));
  NodePtr text = NewText(std::move(value));
  FinalizeTree(text);
  return text;
}

Result<NodePtr> ConstructComment(const Sequence& content, QueryGuard* guard) {
  XQC_ASSIGN_OR_RETURN(std::string value, JoinLexical(content));
  XQC_RETURN_IF_ERROR(AccountNew(guard, static_cast<int64_t>(value.size())));
  NodePtr c = NewComment(std::move(value));
  FinalizeTree(c);
  return c;
}

Result<NodePtr> ConstructPI(Symbol target, const Sequence& content,
                            QueryGuard* guard) {
  XQC_ASSIGN_OR_RETURN(std::string value, JoinLexical(content));
  XQC_RETURN_IF_ERROR(AccountNew(guard, static_cast<int64_t>(value.size())));
  NodePtr pi = NewPI(target, std::move(value));
  FinalizeTree(pi);
  return pi;
}

Result<NodePtr> ConstructDocument(Sequence content, QueryGuard* guard,
                                  ConstructCounts* counts) {
  XQC_RETURN_IF_ERROR(AccountNew(guard, 0));
  NodePtr doc = NewDocument();
  XQC_RETURN_IF_ERROR(AppendContent(doc, std::move(content),
                                    /*allow_attributes=*/false, guard, counts));
  FinalizeTree(doc);
  return doc;
}

}  // namespace xqc
