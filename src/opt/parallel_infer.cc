#include "src/opt/parallel_infer.h"

#include <functional>
#include <map>
#include <set>
#include <vector>

namespace xqc {
namespace {

/// Visits `op` and every operator below it (inputs, dependents, order
/// keys), shared subplans once per reference.
void ForEachOp(const Op& op, const std::function<void(const Op&)>& fn) {
  fn(op);
  for (const OpPtr& d : op.deps) {
    if (d) ForEachOp(*d, fn);
  }
  for (const OpPtr& i : op.inputs) {
    if (i) ForEachOp(*i, fn);
  }
  for (const OrderSpecOp& s : op.specs) {
    if (s.key) ForEachOp(*s.key, fn);
  }
}

/// Visits the main plan, every prolog global and every user function.
void ForEachQueryOp(const CompiledQuery& query,
                    const std::function<void(const Op&)>& fn) {
  ForEachOp(*query.plan, fn);
  for (const auto& [name, plan] : query.globals) {
    if (plan) ForEachOp(*plan, fn);
  }
  for (const auto& [name, f] : query.functions) {
    if (f.plan) ForEachOp(*f.plan, fn);
  }
}

bool ContainsKind(const Op& op, OpKind k) {
  bool found = false;
  ForEachOp(op, [&](const Op& o) { found = found || o.kind == k; });
  return found;
}

bool IsCollectionCall(const Op& op) {
  return op.kind == OpKind::kCall && op.name == Symbol("fn:collection");
}

const Op* SkipTreeJoins(const Op* op) {
  while (op->kind == OpKind::kTreeJoin) op = op->inputs[0].get();
  return op;
}

bool IsConstructor(OpKind k) {
  return k == OpKind::kElement || k == OpKind::kAttribute ||
         k == OpKind::kText || k == OpKind::kComment || k == OpKind::kPI ||
         k == OpKind::kDocumentNode;
}

/// The shape for one candidate split (a MapToItem or a bare collection
/// path reached from the root through constructors and Sequence only).
bool AnalyzeSplit(const CompiledQuery& query, const Op* split,
                  ParallelPlanInfo* info) {
  std::vector<const Op*> builds;  // outermost first while walking
  std::vector<const Op*> group_bys;
  std::vector<Symbol> index_fields;
  const Op* path = split;
  const Op* above = split;  // ends as the op directly above MapFromItem
  if (split->kind == OpKind::kMapToItem) {
    // Walk the chain X from the split down to the driving MapFromItem.
    const Op* op = split->inputs[0].get();
    while (op->kind != OpKind::kMapFromItem) {
      switch (op->kind) {
        case OpKind::kSelect:
        case OpKind::kMap:
          break;
        case OpKind::kMapIndex:
        case OpKind::kMapIndexStep:
          index_fields.push_back(op->name);
          break;
        case OpKind::kJoin:
        case OpKind::kLOuterJoin:
          if (FreeIn(*op->inputs[1])) {
            info->reason = "a join's right input depends on IN";
            return false;
          }
          builds.push_back(op);
          break;
        case OpKind::kGroupBy:
          group_bys.push_back(op);
          break;
        default:
          info->reason = std::string("operator ") + OpKindName(op->kind) +
                         " between the split and the driving scan";
          return false;
      }
      above = op;
      op = op->inputs[0].get();
    }
    path = op->inputs[0].get();
  }
  if (FreeIn(*path)) {
    info->reason = "the driving scan depends on IN";
    return false;
  }
  const Op* collection = SkipTreeJoins(path);
  const bool by_document = IsCollectionCall(*collection);
  const Op* source = by_document ? collection : path;
  if (source->kind == OpKind::kMapToItem) {
    // MapFromItem pulls a nested FLWOR's tuples incrementally; the driver
    // would materialize them instead, which charges the guard differently.
    info->reason = "the driving scan is a nested FLWOR";
    return false;
  }

  // Every GroupBy must partition by the driving index first, so no group
  // straddles two ranges.
  bool has_driving_index = above != split &&
                           (above->kind == OpKind::kMapIndex ||
                            above->kind == OpKind::kMapIndexStep);
  for (const Op* g : group_bys) {
    if (!has_driving_index || g->fields.empty() ||
        g->fields[0] != above->name) {
      info->reason = "a GroupBy's keys do not start with the driving index";
      return false;
    }
  }

  // Index fields are numbered per unit; that is order-equivalent to the
  // global numbering only if nothing reads the numbers themselves.
  // GroupBy key and null lists are not FieldAccess reads.
  std::set<Symbol> indexes(index_fields.begin(), index_fields.end());
  bool index_read = false;
  // The ops the units replace, evaluate or share must each occur once:
  // a second reference elsewhere would see the unit's slice or build.
  std::set<const Op*> single = {split, source};
  single.insert(builds.begin(), builds.end());
  std::map<const Op*, int> refs;
  ForEachQueryOp(query, [&](const Op& o) {
    if (o.kind == OpKind::kFieldAccess && indexes.count(o.name) > 0) {
      index_read = true;
    }
    if (single.count(&o) > 0) refs[&o]++;
  });
  if (index_read) {
    info->reason = "a positional index of the split chain is read";
    return false;
  }
  for (const Op* o : single) {
    if (refs[o] != 1) {
      info->reason = "a shared subplan occurs more than once";
      return false;
    }
  }

  info->eligible = true;
  info->split = split;
  info->source = source;
  info->by_document = by_document;
  info->builds.assign(builds.rbegin(), builds.rend());
  info->reason.clear();
  return true;
}

/// Collects the split candidates reachable from the root through
/// constructors and Sequence only, in evaluation order.
void CollectSplitCandidates(const Op* op, std::vector<const Op*>* out) {
  if (op->kind == OpKind::kMapToItem ||
      (op->kind == OpKind::kTreeJoin &&
       IsCollectionCall(*SkipTreeJoins(op)))) {
    out->push_back(op);
    return;
  }
  if (op->kind != OpKind::kSequence && !IsConstructor(op->kind)) return;
  for (const OpPtr& i : op->inputs) {
    if (i) CollectSplitCandidates(i.get(), out);
  }
}

}  // namespace

void AnalyzeParallel(CompiledQuery* query) {
  ParallelPlanInfo info;
  const Op* plan = query->plan.get();
  auto done = [&]() { query->parallel = std::move(info); };
  if (plan == nullptr) {
    info.reason = "empty plan";
    return done();
  }
  if (ContainsKind(*plan, OpKind::kSerialize)) {
    info.reason = "plan serializes (fn:put): side-effect order";
    return done();
  }
  for (const auto& [name, fn] : query->functions) {
    if (fn.plan && ContainsKind(*fn.plan, OpKind::kSerialize)) {
      info.reason = "a user function serializes (fn:put)";
      return done();
    }
  }
  std::vector<const Op*> candidates;
  CollectSplitCandidates(plan, &candidates);
  if (candidates.empty()) {
    info.reason = "no FLWOR or collection path under constructors and "
                  "Sequence at the root";
    return done();
  }
  for (const Op* split : candidates) {
    if (AnalyzeSplit(*query, split, &info)) break;
  }
  done();
}

}  // namespace xqc
