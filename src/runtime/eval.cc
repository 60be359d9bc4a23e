#include "src/runtime/eval.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/runtime/builtins.h"
#include "src/runtime/construct.h"
#include "src/runtime/joins.h"
#include "src/types/compare.h"
#include "src/xml/project.h"
#include "src/xml/serializer.h"

namespace xqc {
namespace {

constexpr int kMaxRecursionDepth = 4096;

Result<int> CompareOrderKeys(const Sequence& a, const Sequence& b,
                             bool empty_greatest) {
  if (a.empty() && b.empty()) return 0;
  if (a.empty()) return empty_greatest ? 1 : -1;
  if (b.empty()) return empty_greatest ? -1 : 1;
  AtomicValue x = a[0].atomic(), y = b[0].atomic();
  if (x.type() == AtomicType::kUntypedAtomic) {
    x = AtomicValue::String(x.AsString());
  }
  if (y.type() == AtomicType::kUntypedAtomic) {
    y = AtomicValue::String(y.AsString());
  }
  XQC_ASSIGN_OR_RETURN(bool lt, AtomicCompare(CompOp::kLt, x, y));
  if (lt) return -1;
  XQC_ASSIGN_OR_RETURN(bool gt, AtomicCompare(CompOp::kGt, x, y));
  if (gt) return 1;
  return 0;
}

/// Maps an op:general-* call name to its comparison operator.
bool GeneralCompName(Symbol name, CompOp* op) {
  const std::string& s = name.str();
  if (s.rfind("op:general-", 0) != 0) return false;
  std::string suffix = s.substr(11);
  static const std::pair<const char*, CompOp> kOps[] = {
      {"eq", CompOp::kEq}, {"ne", CompOp::kNe}, {"lt", CompOp::kLt},
      {"le", CompOp::kLe}, {"gt", CompOp::kGt}, {"ge", CompOp::kGe}};
  for (const auto& [n, o] : kOps) {
    if (suffix == n) {
      *op = o;
      return true;
    }
  }
  return false;
}

CompOp MirrorOp(CompOp op) {
  switch (op) {
    case CompOp::kLt: return CompOp::kGt;
    case CompOp::kLe: return CompOp::kGe;
    case CompOp::kGt: return CompOp::kLt;
    case CompOp::kGe: return CompOp::kLe;
    default: return op;  // eq/ne are symmetric
  }
}

/// Which join input a key expression reads: -1 left, 1 right, 0 constant
/// (either side), 2 mixed or unknown. A field belongs to the side whose
/// plan binds it (the left one on a tie: Tuple::Concat keeps left values);
/// a field neither plan binds can only come through the side that passes
/// the enclosing IN tuple on ("open").
int KeySide(const Op& key, const TupleLayout& l, const TupleLayout& r) {
  std::vector<Symbol> used;
  CollectOuterFieldUses(key, &used);
  if (used.empty()) return 0;
  bool in_l = true, in_r = true;
  for (Symbol f : used) {
    bool left = l.fields.count(f) > 0 ||
                (r.fields.count(f) == 0 && l.open && !r.open);
    bool right = !left && (r.fields.count(f) > 0 || (r.open && !l.open));
    if (!left) in_l = false;
    if (!right) in_r = false;
  }
  if (in_l) return -1;
  if (in_r) return 1;
  return 2;
}

/// Is `pred` a general-comparison call whose two argument plans partition
/// into left-side / right-side key expressions? (The join recognizer
/// feeding the Section 6 algorithms.) On success sets the operator as seen
/// from `left_key OP right_key` (mirrored if the arguments were swapped).
bool IsIndexableComparison(const Op& pred, const TupleLayout& l,
                           const TupleLayout& r, const Op** left_key,
                           const Op** right_key, CompOp* comp) {
  if (pred.kind != OpKind::kCall || pred.inputs.size() != 2 ||
      !GeneralCompName(pred.name, comp)) {
    return false;
  }
  int s0 = KeySide(*pred.inputs[0], l, r);
  int s1 = KeySide(*pred.inputs[1], l, r);
  if ((s0 == -1 || s0 == 0) && (s1 == 1 || s1 == 0)) {
    *left_key = pred.inputs[0].get();
    *right_key = pred.inputs[1].get();
    return true;
  }
  if ((s0 == 1) && (s1 == -1 || s1 == 0)) {
    *left_key = pred.inputs[1].get();
    *right_key = pred.inputs[0].get();
    *comp = MirrorOp(*comp);
    return true;
  }
  return false;
}

}  // namespace

PlanEvaluator::PlanEvaluator(const CompiledQuery* query, DynamicContext* ctx,
                             const EngineOptions& options)
    : query_(query),
      ctx_(ctx),
      options_(options),
      guard_(ctx->guard() != nullptr ? ctx->guard() : UnlimitedGuard()) {}

Status PlanEvaluator::PrepareGlobals() {
  if (globals_prepared_) return Status::OK();
  globals_prepared_ = true;
  for (const auto& [name, plan] : query_->globals) {
    if (plan == nullptr) {
      Sequence v;
      if (!ctx_->LookupVariable(name, &v)) {
        return Status::XQueryError(
            "XPDY0002", "external variable $" + name.str() + " not bound");
      }
      globals_[name] = std::move(v);
      continue;
    }
    XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*plan, EvalCtx{}));
    globals_[name] = std::move(v);
  }
  return Status::OK();
}

Result<Sequence> PlanEvaluator::Run() {
  XQC_RETURN_IF_ERROR(PrepareGlobals());
  return EvalItems(*query_->plan, EvalCtx{});
}

Result<bool> PlanEvaluator::EvalPredicate(const Op& pred, const Tuple& t,
                                          const EvalCtx& c) {
  EvalCtx pc = c;
  pc.tuple = &t;
  pc.items = nullptr;
  // The effective boolean value is decidable from a 2-item prefix (empty,
  // first-item-node, or the >1-atomics error), so streaming mode bounds
  // the predicate's evaluation.
  XQC_ASSIGN_OR_RETURN(Sequence v, EvalItemsLimited(pred, pc, 2));
  return EffectiveBooleanValue(v);
}

Result<Sequence> PlanEvaluator::EvalItemsLimited(const Op& op, const EvalCtx& c,
                                                 size_t limit) {
  if (!streaming() || limit == kEvalNoLimit) return EvalItems(op, c);
  switch (op.kind) {
    case OpKind::kMapToItem:
      return EvalMapToItem(op, c, limit);
    case OpKind::kSequence: {
      Sequence out;
      for (const OpPtr& i : op.inputs) {
        if (out.size() >= limit) {
          stats_.streaming_early_stops++;
          break;
        }
        XQC_ASSIGN_OR_RETURN(Sequence v,
                             EvalItemsLimited(*i, c, limit - out.size()));
        Extend(&out, std::move(v));
      }
      return out;
    }
    case OpKind::kCond: {
      XQC_ASSIGN_OR_RETURN(Sequence cond, EvalItemsLimited(*op.inputs[0], c, 2));
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return EvalItemsLimited(b ? *op.deps[0] : *op.deps[1], c, limit);
    }
    case OpKind::kTreeJoin: {
      if (options_.force_sort || op.ddo != DdoMode::kSkip) {
        return EvalItems(op, c);
      }
      // Sort-free step: each input node's result is already final output,
      // so the step can stop as soon as `limit` items exist. The input is
      // pulled whole — acceptable because the win here is skipping axis
      // application (e.g. //huge-subtree[1]), not input evaluation.
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      TreeJoinOpts tj{op.ddo, false, options_.use_doc_index, guard_};
      Sequence out;
      for (const Item& it : in) {
        if (out.size() >= limit) {
          stats_.streaming_early_stops++;
          break;
        }
        if (!it.IsNode()) {
          return Status::XQueryError("XPTY0004",
                                     "path step applied to an atomic value");
        }
        XQC_RETURN_IF_ERROR(guard_->CheckSteps(1));
        XQC_RETURN_IF_ERROR(ApplyAxis(it.node(), op.axis, op.ntest,
                                      ctx_->schema(), &out, tj,
                                      &stats_.tree_join));
      }
      stats_.tree_join.ddo_skip_static++;
      return out;
    }
    default:
      return EvalItems(op, c);
  }
}

Result<std::optional<IntegerRange>> PlanEvaluator::OpenRange(
    const Op& op, const EvalCtx& c) {
  static const Symbol kTo("op:to");
  if (op.kind != OpKind::kCall || op.name != kTo || op.inputs.size() != 2 ||
      query_->functions.count(op.name) > 0 ||
      (slice_ != nullptr && &op == slice_->source)) {
    return std::optional<IntegerRange>();
  }
  XQC_RETURN_IF_ERROR(guard_->Check());
  XQC_ASSIGN_OR_RETURN(Sequence lo, EvalItems(*op.inputs[0], c));
  XQC_ASSIGN_OR_RETURN(Sequence hi, EvalItems(*op.inputs[1], c));
  XQC_ASSIGN_OR_RETURN(IntegerRange r, OpenIntegerRange(lo, hi, guard_));
  return std::make_optional(r);
}

Result<Sequence> PlanEvaluator::EvalMapToItem(const Op& op, const EvalCtx& c,
                                              size_t limit) {
  XQC_ASSIGN_OR_RETURN(TupleIteratorPtr input, OpenTable(*op.inputs[0], c));
  // Full consumption pulls whole batches; a limited pull asks for one tuple
  // at a time, so it never evaluates input beyond the prefix it uses.
  size_t demand = limit == kEvalNoLimit ? BatchSize() : 1;
  Sequence out;
  TupleBatch b;
  while (out.size() < limit) {
    XQC_RETURN_IF_ERROR(input->NextBatch(&b, demand));
    if (b.empty()) return out;
    for (size_t i = 0; i < b.size(); i++) {
      EvalCtx dc = c;
      dc.tuple = &b[i];
      dc.owned_tuple = &b[i];
      dc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.deps[0], dc));
      Extend(&out, std::move(v));
      // Drop the row now: later rows' consuming reads then find storage
      // unshared exactly when they would at batch size 1.
      b[i] = Tuple();
    }
  }
  input->Close();
  stats_.streaming_early_stops++;
  return out;
}

Result<Sequence> PlanEvaluator::EvalItems(const Op& op, const EvalCtx& c) {
  if (slice_ != nullptr && &op == slice_->source) {
    // Partition slice (runtime/parallel.cc): the unit's share of the
    // partitioned scan, or — on the driver — the split's recombined
    // output. Charged by whoever evaluated it, not here.
    return slice_->run ? slice_->run() : slice_->items;
  }
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (op.kind) {
    case OpKind::kIn:
      if (c.items != nullptr) return *c.items;
      return Status::Internal("IN evaluated as items with no item context");
    case OpKind::kEmpty:
      return Sequence{};
    case OpKind::kScalar:
      return Sequence{op.literal};
    case OpKind::kVar: {
      // The algebra context: function parameters shadow globals shadow
      // externally bound variables.
      if (c.params != nullptr) {
        auto it = c.params->find(op.name);
        if (it != c.params->end()) return it->second;
      }
      auto git = globals_.find(op.name);
      if (git != globals_.end()) return git->second;
      Sequence v;
      if (ctx_->LookupVariable(op.name, &v)) return v;
      return Status::XQueryError("XPDY0002",
                                 "unbound variable $" + op.name.str());
    }
    case OpKind::kSequence: {
      Sequence out;
      for (const OpPtr& i : op.inputs) {
        XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*i, c));
        Extend(&out, std::move(v));
      }
      return out;
    }
    case OpKind::kElement:
    case OpKind::kAttribute:
    case OpKind::kText:
    case OpKind::kComment:
    case OpKind::kPI:
    case OpKind::kDocumentNode:
      return EvalConstructor(op, c);
    case OpKind::kTreeJoin: {
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      // One amortized step per context node: a huge axis step cannot run
      // unbounded between slow checks. Credited identically at every
      // batch size (TreeJoin is item-space; batching happens around it).
      XQC_RETURN_IF_ERROR(guard_->CheckSteps(static_cast<int64_t>(in.size())));
      TreeJoinOpts tj{op.ddo, options_.force_sort, options_.use_doc_index,
                      guard_};
      return TreeJoin(in, op.axis, op.ntest, ctx_->schema(), tj,
                      &stats_.tree_join);
    }
    case OpKind::kTreeProject: {
      // TreeProject[paths]: prune each document/element tree to the nodes
      // the projection paths need (Marian-Siméon style).
      XQC_ASSIGN_OR_RETURN(Sequence in, EvalItems(*op.inputs[0], c));
      Sequence out;
      out.reserve(in.size());
      for (const Item& it : in) {
        if (!it.IsNode()) {
          return Status::XQueryError("XPTY0004",
                                     "TreeProject of an atomic value");
        }
        XQC_ASSIGN_OR_RETURN(NodePtr p, ProjectTree(it.node(), op.paths));
        out.push_back(std::move(p));
      }
      return out;
    }
    case OpKind::kCastable:
    case OpKind::kCast: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(v));
      bool castable = op.kind == OpKind::kCastable;
      if (atoms.empty()) {
        bool ok_empty = op.stype.occ == Occurrence::kOptional;
        if (castable) return Sequence{AtomicValue::Boolean(ok_empty)};
        if (ok_empty) return Sequence{};
        return Status::XQueryError("XPTY0004", "cast of empty sequence");
      }
      if (atoms.size() > 1) {
        if (castable) return Sequence{AtomicValue::Boolean(false)};
        return Status::XQueryError("XPTY0004", "cast of multi-item sequence");
      }
      Result<AtomicValue> r = CastTo(atoms[0].atomic(), op.stype.test.atomic);
      if (castable) return Sequence{AtomicValue::Boolean(r.ok())};
      if (!r.ok()) return r.status();
      return Sequence{r.take()};
    }
    case OpKind::kValidate: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      Sequence out;
      for (const Item& it : v) {
        if (!it.IsNode()) {
          return Status::XQueryError("XQTY0030",
                                     "validate of an atomic value");
        }
        if (ctx_->schema() == nullptr) {
          out.push_back(it);
          continue;
        }
        XQC_ASSIGN_OR_RETURN(NodePtr n, ctx_->schema()->Validate(it.node()));
        out.push_back(std::move(n));
      }
      return out;
    }
    case OpKind::kTypeMatches: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      return Sequence{
          AtomicValue::Boolean(op.stype.Matches(v, ctx_->schema()))};
    }
    case OpKind::kTypeAssert: {
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[0], c));
      if (!op.stype.Matches(v, ctx_->schema())) {
        return Status::XQueryError(
            "XPTY0004",
            "TypeAssert failed for type " + op.stype.ToString());
      }
      return v;
    }
    case OpKind::kCall:
      return EvalCall(op, c);
    case OpKind::kCond: {
      // A condition is consumed by EBV only: a 2-item prefix suffices.
      XQC_ASSIGN_OR_RETURN(Sequence cond, EvalItemsLimited(*op.inputs[0], c, 2));
      XQC_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return EvalItems(b ? *op.deps[0] : *op.deps[1], c);
    }
    case OpKind::kParse: {
      XQC_ASSIGN_OR_RETURN(Sequence uri, EvalItems(*op.inputs[0], c));
      if (uri.size() != 1) {
        return Status::XQueryError("FODC0002", "Parse with non-singleton URI");
      }
      XQC_ASSIGN_OR_RETURN(NodePtr doc,
                           ctx_->ResolveDocument(uri[0].StringValue()));
      return Sequence{std::move(doc)};
    }
    case OpKind::kSerialize: {
      // Serialize(URI, S(i)): writes the serialized value to the URI
      // (a filesystem path) and returns the empty sequence (Table 1).
      XQC_ASSIGN_OR_RETURN(Sequence uri, EvalItems(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[1], c));
      if (uri.size() != 1) {
        return Status::XQueryError("FODC0002",
                                   "Serialize with non-singleton URI");
      }
      std::ofstream out(uri[0].StringValue(), std::ios::binary);
      if (!out) {
        return Status::IOError("cannot open for writing: " +
                               uri[0].StringValue());
      }
      out << SerializeSequence(v);
      return Sequence{};
    }
    case OpKind::kFieldAccess: {
      if (op.inputs[0]->kind == OpKind::kIn) {
        // IN#f reads the context tuple in place, charging the guard step
        // the tuple evaluation it replaces would have. A consuming read on
        // a lent tuple hands the value over (construct.h).
        XQC_RETURN_IF_ERROR(guard_->Check());
        if (c.tuple == nullptr) return Sequence{};
        if (op.consume && c.owned_tuple == c.tuple) {
          return c.owned_tuple->Take(op.name);
        }
        const Sequence* v = c.tuple->Get(op.name);
        if (v == nullptr) return Sequence{};
        return *v;
      }
      XQC_ASSIGN_OR_RETURN(Tuple t, EvalTuple(*op.inputs[0], c));
      const Sequence* v = t.Get(op.name);
      if (v == nullptr) return Sequence{};
      return *v;
    }
    case OpKind::kMapToItem:
      return EvalMapToItem(op, c, kEvalNoLimit);
    case OpKind::kMapSome:
    case OpKind::kMapEvery: {
      // Quantifier short-circuit: predicates stop at the first deciding
      // tuple. Streaming pulls the binding stream one tuple at a time and
      // abandons it there; materializing mode drains it.
      bool want = op.kind == OpKind::kMapSome;
      XQC_ASSIGN_OR_RETURN(TupleIteratorPtr input,
                           OpenTable(*op.inputs[0], c));
      size_t demand = streaming() ? 1 : BatchSize();
      bool decided = false;
      TupleBatch b;
      while (true) {
        XQC_RETURN_IF_ERROR(input->NextBatch(&b, demand));
        if (b.empty()) break;
        for (size_t i = 0; i < b.size() && !decided; i++) {
          XQC_ASSIGN_OR_RETURN(bool v, EvalPredicate(*op.deps[0], b[i], c));
          decided = v == want;
        }
        if (decided && streaming()) {
          input->Close();
          stats_.streaming_early_stops++;
          break;
        }
      }
      return Sequence{AtomicValue::Boolean(decided ? want : !want)};
    }
    default:
      return Status::Internal(std::string("tuple operator ") +
                              OpKindName(op.kind) +
                              " evaluated in item context");
  }
}

Result<Tuple> PlanEvaluator::EvalTuple(const Op& op, const EvalCtx& c) {
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (op.kind) {
    case OpKind::kIn:
      if (c.tuple != nullptr) return *c.tuple;
      return Tuple();  // top level: the empty tuple
    case OpKind::kTupleConstruct: {
      Tuple t;
      for (size_t i = 0; i < op.fields.size(); i++) {
        XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*op.inputs[i], c));
        t.Set(op.fields[i], std::move(v));
      }
      return t;
    }
    case OpKind::kTupleConcat: {
      XQC_ASSIGN_OR_RETURN(Tuple a, EvalTuple(*op.inputs[0], c));
      XQC_ASSIGN_OR_RETURN(Tuple b, EvalTuple(*op.inputs[1], c));
      return Tuple::Concat(a, b);
    }
    default:
      return Status::Internal(std::string(OpKindName(op.kind)) +
                              " evaluated in tuple context");
  }
}

Result<Table> PlanEvaluator::EvalTable(const Op& op, const EvalCtx& c) {
  XQC_RETURN_IF_ERROR(guard_->Check());
  switch (op.kind) {
    case OpKind::kIn: {
      Table t;
      t.push_back(c.tuple != nullptr ? *c.tuple : Tuple());
      return t;
    }
    case OpKind::kEmptyTuples: {
      Table t;
      t.emplace_back();
      return t;
    }
    case OpKind::kTupleConstruct:
    case OpKind::kTupleConcat: {
      XQC_ASSIGN_OR_RETURN(Tuple t, EvalTuple(op, c));
      Table out;
      out.push_back(std::move(t));
      return out;
    }
    case OpKind::kOrderBy:
      return EvalOrderBy(op, c);
    case OpKind::kGroupBy:
      return EvalGroupBy(op, c);
    default:
      break;
  }
  // Every other table operator has one implementation, its iterator
  // (iterator.cc): materializing the table is draining it.
  XQC_ASSIGN_OR_RETURN(TupleIteratorPtr it, OpenTable(op, c));
  Table out;
  TupleBatch b;
  while (true) {
    XQC_RETURN_IF_ERROR(it->NextBatch(&b, BatchSize()));
    if (b.empty()) return out;
    for (size_t i = 0; i < b.size(); i++) out.push_back(std::move(b[i]));
  }
}

Result<JoinBuild> PlanEvaluator::BuildJoin(const Op& op, const EvalCtx& c) {
  if (seeded_builds_ != nullptr) {
    auto it = seeded_builds_->find(&op);
    if (it != seeded_builds_->end()) return it->second;
  }
  JoinBuild b;
  bool cacheable = false;
  XQC_ASSIGN_OR_RETURN(b.right, MaterializeJoinRight(op, c, &cacheable));
  XQC_ASSIGN_OR_RETURN(b.strategy,
                       PlanJoinStrategy(op, c, b.right, cacheable));
  return b;
}

Result<std::shared_ptr<const Table>> PlanEvaluator::MaterializeJoinRight(
    const Op& op, const EvalCtx& c, bool* cacheable) {
  // The inner (right) side of a correlated subplan's join re-evaluates per
  // outer tuple; when it is independent of IN (and of function parameters)
  // its materialization — and in PlanJoinStrategy, its Figure 6 index — is
  // cached.
  *cacheable = c.params == nullptr && !FreeIn(*op.inputs[1]);
  if (*cacheable) {
    auto it = table_cache_.find(op.inputs[1].get());
    if (it != table_cache_.end()) return it->second;
  }
  XQC_ASSIGN_OR_RETURN(Table t, EvalTable(*op.inputs[1], c));
  auto shared = std::make_shared<const Table>(std::move(t));
  if (*cacheable) table_cache_[op.inputs[1].get()] = shared;
  return shared;
}

const JoinStrategy& PlanEvaluator::AnalyzeJoin(const Op& op) {
  auto it = join_keys_.find(&op);
  if (it != join_keys_.end()) return it->second;
  JoinStrategy& s = join_keys_[&op];
  if (options_.join_impl == JoinImpl::kNestedLoop) return s;

  // Multi-predicate joins (Section 6: "this algorithm handles one key
  // predicate in a join, but can be extended to multiple predicates"):
  // every indexable equality conjunct becomes one component of a composite
  // index key and the rest form a residual filter. Without an equality
  // conjunct, the first inequality conjunct drives the range sort join.
  TupleLayout l = TableLayout(*op.inputs[0]);
  TupleLayout r = TableLayout(*op.inputs[1]);
  std::vector<const Op*> conjuncts;
  FlattenConjuncts(*op.deps[0], &conjuncts);
  std::vector<bool> is_key(conjuncts.size(), false);
  for (size_t i = 0; i < conjuncts.size(); i++) {
    CompOp cand;
    const Op* lk;
    const Op* rk;
    if (IsIndexableComparison(*conjuncts[i], l, r, &lk, &rk, &cand) &&
        cand == CompOp::kEq) {
      is_key[i] = true;
      s.left_keys.push_back(lk);
      s.right_keys.push_back(rk);
    }
  }
  if (s.left_keys.empty()) {
    for (size_t i = 0; i < conjuncts.size(); i++) {
      CompOp cand;
      const Op* lk;
      const Op* rk;
      if (IsIndexableComparison(*conjuncts[i], l, r, &lk, &rk, &cand) &&
          (cand == CompOp::kLt || cand == CompOp::kLe ||
           cand == CompOp::kGt || cand == CompOp::kGe)) {
        is_key[i] = true;
        s.left_keys.push_back(lk);
        s.right_keys.push_back(rk);
        s.comp = cand;
        s.kind = JoinStrategy::Kind::kInequality;
        break;
      }
    }
    if (s.left_keys.empty()) return s;  // nested loops
  } else {
    // Static key-type specialization (Section 6): when both key plans'
    // value classes are known, use single-entry string/double keys
    // instead of the general promotion enumeration.
    bool schema_in_scope = ctx_->schema() != nullptr;
    s.kind = JoinStrategy::Kind::kEquality;
    for (size_t i = 0; i < s.left_keys.size(); i++) {
      KeyMode mode = CombineKeyClasses(
          InferJoinKeyClass(*s.left_keys[i], schema_in_scope),
          InferJoinKeyClass(*s.right_keys[i], schema_in_scope));
      // Statically incompatible key types: nothing ever matches.
      if (mode == KeyMode::kNoMatch) s.kind = JoinStrategy::Kind::kNoMatch;
      s.modes.push_back(mode);
    }
  }
  for (size_t i = 0; i < conjuncts.size(); i++) {
    if (!is_key[i]) s.residual.push_back(conjuncts[i]);
  }
  return s;
}

Result<JoinStrategy> PlanEvaluator::PlanJoinStrategy(
    const Op& op, const EvalCtx& c, const std::shared_ptr<const Table>& right,
    bool right_cacheable) {
  JoinStrategy s = AnalyzeJoin(op);
  if (s.kind == JoinStrategy::Kind::kNestedLoop) {
    stats_.nested_loop_joins++;
    return s;
  }
  bool ordered = options_.join_impl == JoinImpl::kSort;
  if (s.kind != JoinStrategy::Kind::kInequality) {
    if (ordered) {
      stats_.sort_joins++;
    } else {
      stats_.hash_joins++;
    }
    if (s.left_keys.size() > 1) stats_.composite_joins++;
    bool specialized = s.kind == JoinStrategy::Kind::kNoMatch;
    for (KeyMode m : s.modes) {
      if (m != KeyMode::kGeneralKeys) specialized = true;
    }
    if (specialized) stats_.specialized_joins++;
    if (s.kind == JoinStrategy::Kind::kNoMatch) return s;
  } else {
    // Inequality: the range variant of the sort join (Section 6's "the
    // same approach can be used to implement a sort join").
    stats_.range_joins++;
  }

  // Reuse the index of an unchanged cached inner side.
  if (right_cacheable) {
    auto it = inner_cache_.find(&op);
    if (it != inner_cache_.end() && it->second.table == right) {
      if (s.kind == JoinStrategy::Kind::kEquality) {
        s.eq_index = std::static_pointer_cast<const MaterializedInner>(
            it->second.index);
      } else {
        s.range_index = std::static_pointer_cast<const MaterializedRangeInner>(
            it->second.index);
      }
      stats_.join_index_reuses++;
      return s;
    }
  }
  std::vector<KeyFn> rkey_fns;
  for (const Op* rkey : s.right_keys) {
    rkey_fns.push_back([this, rkey, &c](const Tuple& t) -> Result<Sequence> {
      EvalCtx kc = c;
      kc.tuple = &t;
      kc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Sequence v, EvalItems(*rkey, kc));
      return Atomize(v);  // fn:data, Figure 6 line 7
    });
  }
  std::shared_ptr<const void> index;
  if (s.kind == JoinStrategy::Kind::kEquality) {
    XQC_ASSIGN_OR_RETURN(s.eq_index, MaterializeInner(*right, rkey_fns, ordered,
                                                      s.modes, guard_));
    index = s.eq_index;
  } else {
    XQC_ASSIGN_OR_RETURN(s.range_index,
                         MaterializeRangeInner(*right, rkey_fns[0], guard_));
    index = s.range_index;
  }
  if (right_cacheable) inner_cache_[&op] = CachedInner{right, index};
  return s;
}

Status PlanEvaluator::ProbeJoinTuple(const Op& op, const JoinStrategy& s,
                                     const EvalCtx& c, const Tuple& left,
                                     const Table& right, bool outer,
                                     Table* out) {
  switch (s.kind) {
    case JoinStrategy::Kind::kNoMatch:
      if (outer) out->push_back(NullRow(op.name, true, left));
      return Status::OK();
    case JoinStrategy::Kind::kNestedLoop: {
      const Op& pred = *op.deps[0];
      PredFn pred_fn = [this, &pred, &c](const Tuple& t) {
        return EvalPredicate(pred, t, c);
      };
      return NestedLoopProbe(left, right, pred_fn, outer, op.name, out);
    }
    default:
      break;
  }
  // Indexed probes: evaluate and atomize the left keys (Figure 6 line 7).
  EvalCtx kc = c;
  kc.tuple = &left;
  kc.items = nullptr;
  std::vector<Sequence> keys(s.left_keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    XQC_ASSIGN_OR_RETURN(Sequence kv, EvalItems(*s.left_keys[i], kc));
    XQC_ASSIGN_OR_RETURN(keys[i], Atomize(kv));
  }
  PredFn residual = [this, &s, &c](const Tuple& t) -> Result<bool> {
    for (const Op* conj : s.residual) {
      XQC_ASSIGN_OR_RETURN(bool b, EvalPredicate(*conj, t, c));
      if (!b) return false;
    }
    return true;
  };
  const PredFn* residual_ptr = s.residual.empty() ? nullptr : &residual;
  if (s.kind == JoinStrategy::Kind::kEquality) {
    return EqualityProbe(left, keys, right, *s.eq_index, outer, op.name,
                         residual_ptr, out);
  }
  return InequalityProbe(left, keys[0], right, *s.range_index, s.comp, outer,
                         op.name, residual_ptr, out);
}

Result<Table> PlanEvaluator::EvalGroupBy(const Op& op, const EvalCtx& c) {
  stats_.group_bys++;
  XQC_ASSIGN_OR_RETURN(Table in, EvalTable(*op.inputs[0], c));
  const Op& post = *op.deps[0];  // applied to each partition's items
  const Op& pre = *op.deps[1];   // applied to each non-null tuple

  // Evaluate null flags and pre-grouping items per tuple.
  struct Row {
    Tuple* tuple;  // into `in`; the partition's first row is moved out
    std::vector<int64_t> key;
    Sequence items;
    bool is_null;
  };
  std::vector<Row> rows;
  rows.reserve(in.size());
  for (Tuple& t : in) {
    Row row{&t, {}, {}, false};
    for (Symbol nf : op.fields2) {
      const Sequence* flag = t.Get(nf);
      if (flag != nullptr && !flag->empty() && (*flag)[0].IsAtomic() &&
          (*flag)[0].atomic().type() == AtomicType::kBoolean &&
          (*flag)[0].atomic().AsBool()) {
        row.is_null = true;
      }
    }
    for (Symbol f : op.fields) {
      const Sequence* v = t.Get(f);
      if (v == nullptr && row.is_null) {
        // A null row from an outer map lifted through this GroupBy lacks
        // the inner index fields; it is the only row of its outer index,
        // so any constant keeps it in a partition of its own (indexes
        // start at 1).
        row.key.push_back(0);
        continue;
      }
      if (v == nullptr || v->size() != 1 || !(*v)[0].IsAtomic() ||
          (*v)[0].atomic().type() != AtomicType::kInteger) {
        return Status::Internal("GroupBy index field " + f.str() +
                                " is not a singleton integer");
      }
      row.key.push_back((*v)[0].atomic().AsInt());
    }
    if (!row.is_null) {
      EvalCtx pc = c;
      pc.tuple = &t;
      pc.owned_tuple = &t;
      pc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(row.items, EvalItems(pre, pc));
    }
    rows.push_back(std::move(row));
  }

  // Partitions are keyed by the index fields in stable ascending order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.key < b.key; });

  Table out;
  size_t i = 0;
  while (i < rows.size()) {
    size_t j = i;
    Sequence partition_items;
    while (j < rows.size() && rows[j].key == rows[i].key) {
      Extend(&partition_items, std::move(rows[j].items));
      j++;
    }
    EvalCtx pc = c;
    pc.items = &partition_items;
    pc.tuple = nullptr;
    XQC_ASSIGN_OR_RETURN(Sequence agg, EvalItems(post, pc));
    Tuple result = std::move(*rows[i].tuple);
    result.Set(op.name, std::move(agg));
    out.push_back(std::move(result));
    i = j;
  }
  return out;
}

Result<Table> PlanEvaluator::EvalOrderBy(const Op& op, const EvalCtx& c) {
  XQC_ASSIGN_OR_RETURN(Table in, EvalTable(*op.inputs[0], c));
  struct Keyed {
    Tuple t;
    std::vector<Sequence> keys;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(in.size());
  for (Tuple& t : in) {
    Keyed k{std::move(t), {}};
    for (const OrderSpecOp& spec : op.specs) {
      EvalCtx kc = c;
      kc.tuple = &k.t;
      kc.items = nullptr;
      XQC_ASSIGN_OR_RETURN(Sequence kv, EvalItems(*spec.key, kc));
      XQC_ASSIGN_OR_RETURN(Sequence atoms, Atomize(kv));
      if (atoms.size() > 1) {
        return Status::XQueryError("XPTY0004",
                                   "order by key with more than one item");
      }
      k.keys.push_back(std::move(atoms));
    }
    keyed.push_back(std::move(k));
  }
  Status sort_error = Status::OK();
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (!sort_error.ok()) return false;
                     for (size_t i = 0; i < op.specs.size(); i++) {
                       Result<int> cmp = CompareOrderKeys(
                           a.keys[i], b.keys[i], op.specs[i].empty_greatest);
                       if (!cmp.ok()) {
                         sort_error = cmp.status();
                         return false;
                       }
                       int v = cmp.value();
                       if (op.specs[i].descending) v = -v;
                       if (v != 0) return v < 0;
                     }
                     return false;
                   });
  XQC_RETURN_IF_ERROR(sort_error);
  Table out;
  out.reserve(keyed.size());
  for (Keyed& k : keyed) out.push_back(std::move(k.t));
  return out;
}

namespace {

/// A single atomic numeric value (no untyped casting — callers that want
/// full F&O coercion must not rely on this).
bool SingletonNumeric(const Sequence& v, double* out) {
  if (v.size() != 1 || !v[0].IsAtomic() || !v[0].atomic().is_numeric()) {
    return false;
  }
  *out = v[0].atomic().AsDouble();
  return true;
}

}  // namespace

Result<Sequence> PlanEvaluator::EvalCall(const Op& op, const EvalCtx& c) {
  auto it = query_->functions.find(op.name);
  std::vector<Sequence> args(op.inputs.size());
  std::vector<bool> have(op.inputs.size(), false);
  // Early-terminating built-ins: in streaming mode their first argument
  // only needs a bounded prefix (argument evaluation order is
  // implementation-defined, so fn:subsequence's bounds evaluate first).
  size_t first_limit = kEvalNoLimit;
  if (streaming() && it == query_->functions.end() &&
      !op.inputs.empty()) {
    const std::string& n = op.name.str();
    if (n == "fn:exists" || n == "fn:empty") {
      first_limit = 1;
    } else if (n == "fn:boolean" || n == "fn:not") {
      first_limit = 2;  // EBV is decidable from a 2-item prefix
    } else if (n == "fn:subsequence" && op.inputs.size() == 3) {
      for (size_t i = 1; i < op.inputs.size(); i++) {
        XQC_ASSIGN_OR_RETURN(args[i], EvalItems(*op.inputs[i], c));
        have[i] = true;
      }
      double dstart, dlen;
      if (SingletonNumeric(args[1], &dstart) &&
          SingletonNumeric(args[2], &dlen)) {
        // Positions >= round(start)+round(len) are excluded, so only the
        // prefix before that bound is needed. NaN bounds select nothing.
        double to = XQueryRound(dstart) + XQueryRound(dlen);
        if (std::isnan(to) || to < 1) {
          first_limit = 0;
        } else if (to <= 1e15) {
          first_limit = static_cast<size_t>(to) - 1;
        }
      }
    }
  }
  for (size_t i = 0; i < op.inputs.size(); i++) {
    if (have[i]) continue;
    XQC_ASSIGN_OR_RETURN(
        args[i], EvalItemsLimited(*op.inputs[i], c,
                                  i == 0 ? first_limit : kEvalNoLimit));
  }
  if (it != query_->functions.end()) {
    const CompiledFunction& f = it->second;
    if (args.size() != f.params.size()) {
      return Status::XQueryError(
          "XPST0017", "wrong number of arguments for " + f.name.str());
    }
    if (++depth_ > kMaxRecursionDepth) {
      depth_--;
      return Status::ResourceExhausted(kGuardRecursionCode,
                                       "recursion depth exceeded");
    }
    std::unordered_map<Symbol, Sequence> params;
    for (size_t i = 0; i < args.size(); i++) {
      if (f.param_types[i] &&
          !f.param_types[i]->Matches(args[i], ctx_->schema())) {
        depth_--;
        return Status::XQueryError(
            "XPTY0004", "argument type mismatch calling " + f.name.str());
      }
      params[f.params[i]] = std::move(args[i]);
    }
    EvalCtx fc;
    fc.params = &params;
    Result<Sequence> r = EvalItems(*f.plan, fc);
    depth_--;
    if (r.ok() && f.return_type &&
        !f.return_type->Matches(r.value(), ctx_->schema())) {
      return Status::XQueryError(
          "XPTY0004", "result type mismatch from " + f.name.str());
    }
    return r;
  }
  return CallBuiltin(op.name, args, ctx_);
}

Result<Sequence> PlanEvaluator::EvalConstructor(const Op& op,
                                                const EvalCtx& c) {
  XQC_ASSIGN_OR_RETURN(Sequence content, EvalItems(*op.inputs[0], c));
  Symbol name = op.name;
  if (op.inputs.size() > 1) {  // computed constructor name
    XQC_ASSIGN_OR_RETURN(Sequence nv, EvalItems(*op.inputs[1], c));
    if (nv.size() != 1) {
      return Status::XQueryError("XPTY0004",
                                 "constructor name is not a QName");
    }
    name = Symbol(nv[0].StringValue());
  }
  Result<NodePtr> n = NodePtr();
  ConstructCounts counts;
  switch (op.kind) {
    case OpKind::kElement:
      n = ConstructElement(name, std::move(content), guard_, &counts);
      break;
    case OpKind::kAttribute:
      n = ConstructAttribute(name, content, guard_);
      break;
    case OpKind::kText:
      n = ConstructText(content, guard_);
      break;
    case OpKind::kComment:
      n = ConstructComment(content, guard_);
      break;
    case OpKind::kPI:
      n = ConstructPI(name, content, guard_);
      break;
    case OpKind::kDocumentNode:
      n = ConstructDocument(std::move(content), guard_, &counts);
      break;
    default:
      return Status::Internal("not a constructor operator");
  }
  stats_.nodes_copied += counts.nodes_copied;
  stats_.nodes_adopted += counts.nodes_adopted;
  if (!n.ok()) return n.status();
  if (n.value() == nullptr) return Sequence{};  // empty text constructor
  return Sequence{n.take()};
}

}  // namespace xqc
