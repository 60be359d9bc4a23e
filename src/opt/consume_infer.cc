#include "src/opt/consume_infer.h"

#include <map>

namespace xqc {
namespace {

/// Counts, per field, the operators that read it from a tuple.
void CountFieldReaders(const Op& op, std::map<Symbol, int>* reads) {
  if (op.kind == OpKind::kFieldAccess) (*reads)[op.name]++;
  if (op.kind == OpKind::kGroupBy) {
    for (Symbol f : op.fields) (*reads)[f]++;
    for (Symbol f : op.fields2) (*reads)[f]++;
  }
  for (const OpPtr& d : op.deps) CountFieldReaders(*d, reads);
  for (const OpPtr& i : op.inputs) CountFieldReaders(*i, reads);
  for (const OrderSpecOp& s : op.specs) CountFieldReaders(*s.key, reads);
}

int Mark(Op* op, const std::map<Symbol, int>& reads) {
  int marked = 0;
  if (op->kind == OpKind::kFieldAccess) {
    op->consume = op->inputs[0]->kind == OpKind::kIn &&
                  reads.at(op->name) == 1;
    if (op->consume) marked++;
  }
  for (const OpPtr& d : op->deps) marked += Mark(d.get(), reads);
  for (const OpPtr& i : op->inputs) marked += Mark(i.get(), reads);
  for (const OrderSpecOp& s : op->specs) marked += Mark(s.key.get(), reads);
  return marked;
}

/// Applies `fn` to every plan of the query.
template <typename Fn>
void ForEachPlan(CompiledQuery* query, Fn fn) {
  fn(query->plan.get());
  for (auto& [name, plan] : query->globals) {
    if (plan != nullptr) fn(plan.get());
  }
  for (auto& [name, f] : query->functions) fn(f.plan.get());
}

}  // namespace

int AnnotateConsumingReads(CompiledQuery* query) {
  std::map<Symbol, int> reads;
  ForEachPlan(query, [&](Op* plan) { CountFieldReaders(*plan, &reads); });
  int marked = 0;
  ForEachPlan(query, [&](Op* plan) { marked += Mark(plan, reads); });
  return marked;
}

}  // namespace xqc
