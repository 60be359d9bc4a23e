#include "src/opt/optimizer.h"

#include <algorithm>
#include <map>
#include <set>

namespace xqc {
namespace {

/// Collects every symbol used anywhere in a plan (field names, parameters)
/// so freshly generated index/null fields cannot collide.
void CollectSymbols(const Op& op, std::set<Symbol>* out) {
  out->insert(op.name);
  for (Symbol f : op.fields) out->insert(f);
  for (Symbol f : op.fields2) out->insert(f);
  for (const OpPtr& d : op.deps) CollectSymbols(*d, out);
  for (const OpPtr& i : op.inputs) CollectSymbols(*i, out);
  for (const OrderSpecOp& s : op.specs) CollectSymbols(*s.key, out);
}

/// Counts FieldAccess reads per field anywhere in the plan.
void CountReads(const Op& op, std::map<Symbol, int>* out) {
  if (op.kind == OpKind::kFieldAccess) (*out)[op.name]++;
  for (const OpPtr& d : op.deps) CountReads(*d, out);
  for (const OpPtr& i : op.inputs) CountReads(*i, out);
  for (const OrderSpecOp& s : op.specs) CountReads(*s.key, out);
}

/// Whole-plan facts the outer-map rules consult, gathered before each
/// bottom-up pass. No rule adds a field read or drops a GroupBy key; rules
/// prepend keys and append null fields, and (remove duplicate null) drops
/// only OMap flags, which these rules never consult. So facts that go
/// stale during a pass can only make a rule wait for the next pass, never
/// let it fire wrongly.
struct PlanFacts {
  std::map<Symbol, int> reads;  // FieldAccess count per field
  /// Reads of field f inside the pre-grouping operator of GroupBys whose
  /// null list contains n, keyed (f, n): reads that never see an n-null row.
  std::map<std::pair<Symbol, Symbol>, int> null_guarded_reads;
  /// Index field -> the key lists of every GroupBy keyed on it.
  std::map<Symbol, std::vector<std::vector<Symbol>>> keyed_by;
  /// Null field -> the null lists of every GroupBy listing it.
  std::map<Symbol, std::vector<std::vector<Symbol>>> nulled_by;

  void Collect(const Op& op) {
    if (op.kind == OpKind::kFieldAccess) reads[op.name]++;
    if (op.kind == OpKind::kGroupBy) {
      std::map<Symbol, int> pre_reads;
      CountReads(*op.deps[1], &pre_reads);
      for (const auto& [f, count] : pre_reads) {
        for (Symbol n : op.fields2) null_guarded_reads[{f, n}] += count;
      }
      for (Symbol k : op.fields) keyed_by[k].push_back(op.fields);
      for (Symbol n : op.fields2) nulled_by[n].push_back(op.fields2);
    }
    for (const OpPtr& d : op.deps) Collect(*d);
    for (const OpPtr& i : op.inputs) Collect(*i);
    for (const OrderSpecOp& s : op.specs) Collect(*s.key);
  }
};

bool Contains(const std::vector<Symbol>& v, Symbol f) {
  return std::find(v.begin(), v.end(), f) != v.end();
}

bool IsMapIndex(const Op& op) {
  return op.kind == OpKind::kMapIndex || op.kind == OpKind::kMapIndexStep;
}

/// A navigation operand: a literal, or a path (TreeJoins, fn:data) over a
/// field of IN, possibly under fn:number. `over` is set when the field is
/// in `fields`. On a row lacking the field such an operand is empty or NaN
/// — never an error, and equal to nothing.
bool Navigation(const Op& e, const std::set<Symbol>& fields, bool* over) {
  switch (e.kind) {
    case OpKind::kScalar:
      return true;
    case OpKind::kFieldAccess:
      if (e.inputs[0]->kind != OpKind::kIn) return false;
      if (fields.count(e.name) > 0) *over = true;
      return true;
    case OpKind::kTreeJoin:
      return Navigation(*e.inputs[0], fields, over);
    case OpKind::kCall:
      return (e.name == Symbol("fn:data") || e.name == Symbol("fn:number")) &&
             e.inputs.size() == 1 && Navigation(*e.inputs[0], fields, over);
    default:
      return false;
  }
}

/// Is `pred` false, without raising an error, on every row that lacks all
/// of `fields`? Holds when every conjunct is a general comparison between
/// navigation operands and some operand navigates from one of `fields`
/// (a general comparison with an empty or NaN operand is false).
bool NullRejecting(const Op& pred, const std::set<Symbol>& fields) {
  std::vector<const Op*> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  bool rejects = false;
  for (const Op* c : conjuncts) {
    if (c->kind != OpKind::kCall || c->inputs.size() != 2 ||
        c->name.str().rfind("op:general-", 0) != 0) {
      return false;
    }
    bool over = false;
    if (!Navigation(*c->inputs[0], fields, &over) ||
        !Navigation(*c->inputs[1], fields, &over)) {
      return false;
    }
    rejects = rejects || over;
  }
  return rejects;
}

/// Can a post-grouping operator run on an empty partition without error?
/// (The identity, or an aggregate applied to the partition.)
bool SafeOnEmptyPartition(const Op& post) {
  if (post.kind == OpKind::kIn) return true;
  static const char* const kAggregates[] = {
      "fn:count", "fn:sum", "fn:avg", "fn:min", "fn:max",
      "fn:empty", "fn:exists", "fn:data"};
  if (post.kind != OpKind::kCall || post.inputs.size() != 1 ||
      post.inputs[0]->kind != OpKind::kIn) {
    return false;
  }
  for (const char* name : kAggregates) {
    if (post.name == Symbol(name)) return true;
  }
  return false;
}

/// Does every field `plan` reads from its IN tuple lie in `bound`?
bool ReadsOnly(const Op& plan, const std::set<Symbol>& bound) {
  std::vector<Symbol> used;
  CollectOuterFieldUses(plan, &used);
  for (Symbol f : used) {
    if (bound.count(f) == 0) return false;
  }
  return true;
}

class Rewriter {
 public:
  explicit Rewriter(const Op& root, OptimizerStats* stats) : stats_(stats) {
    CollectSymbols(root, &used_);
  }

  /// Refreshes the whole-plan facts; call before each pass.
  void Analyze(const Op& root) {
    facts_ = PlanFacts();
    facts_.Collect(root);
  }

  /// One bottom-up pass; sets changed_ when any rule fires.
  OpPtr Pass(OpPtr op) {
    for (OpPtr& d : op->deps) d = Pass(std::move(d));
    for (OpPtr& i : op->inputs) i = Pass(std::move(i));
    for (OrderSpecOp& s : op->specs) s.key = Pass(std::move(s.key));
    // Apply rules at this node until none fires.
    for (int guard = 0; guard < 64; guard++) {
      OpPtr next = Apply(op);
      if (next == nullptr) break;
      changed_ = true;
      op = std::move(next);
    }
    return op;
  }

  bool changed() const { return changed_; }
  void reset_changed() { changed_ = false; }

 private:
  Symbol Fresh(const char* base) {
    for (int n = 1;; n++) {
      Symbol s(std::string(base) + std::to_string(n));
      if (used_.insert(s).second) return s;
    }
  }

  void Count(int OptimizerStats::* field) {
    if (stats_ != nullptr) (stats_->*field)++;
  }

  /// Tries every rule at `op`; returns the replacement or null.
  OpPtr Apply(const OpPtr& op) {
    if (OpPtr r = FusePathStep(op)) return r;
    if (OpPtr r = CollapseDescendantStep(op)) return r;
    if (OpPtr r = RemoveMap(op)) return r;
    if (OpPtr r = InsertGroupBy(op)) return r;
    if (OpPtr r = MapThroughGroupBy(op)) return r;
    if (OpPtr r = RemoveDuplicateNull(op)) return r;
    if (OpPtr r = InsertProduct(op)) return r;
    if (OpPtr r = LiftProduct(op)) return r;
    if (OpPtr r = UnnestOuterMap(op)) return r;
    if (OpPtr r = SplitSelect(op)) return r;
    if (OpPtr r = InsertJoin(op)) return r;
    if (OpPtr r = MergeSelectIntoJoin(op)) return r;
    if (OpPtr r = InsertOuterJoin(op)) return r;
    return nullptr;
  }

  // Path-step fusion: TreeJoin is set-at-a-time (Section 3), so the
  // normalized per-context-node FLWOR of a path step
  //   fs:distinct-docorder(
  //     MapToItem{TreeJoin...(IN#q)}(MapFromItem{[q:IN]}(X)))
  // (optionally with a single-tuple MapConcat around the MapFromItem) is
  // exactly TreeJoin...(X): TreeJoin already returns distinct nodes in
  // document order. This is what turns compiled paths into the inlined
  // (IN#p)/name/text() navigation chains shown in the paper's plans.
  OpPtr FusePathStep(const OpPtr& op) {
    if (op->kind == OpKind::kCall &&
        op->name == Symbol("fs:distinct-docorder") &&
        op->inputs.size() == 1 &&
        op->inputs[0]->kind == OpKind::kTreeJoin) {
      return op->inputs[0];  // ddo(TreeJoin(X)) => TreeJoin(X)
    }
    if (op->kind != OpKind::kCall ||
        op->name != Symbol("fs:distinct-docorder") || op->inputs.size() != 1 ||
        op->inputs[0]->kind != OpKind::kMapToItem) {
      return nullptr;
    }
    const OpPtr& map = op->inputs[0];
    // Source: MapFromItem{[q:IN]}(X), possibly under a single-tuple
    // MapConcat (input IN or ([])).
    const Op* src = map->inputs[0].get();
    if (src->kind == OpKind::kMapConcat &&
        (src->inputs[0]->kind == OpKind::kIn ||
         src->inputs[0]->kind == OpKind::kEmptyTuples)) {
      src = src->deps[0].get();
    }
    if (src->kind != OpKind::kMapFromItem ||
        src->deps[0]->kind != OpKind::kTupleConstruct ||
        src->deps[0]->fields.size() != 1 ||
        src->deps[0]->inputs[0]->kind != OpKind::kIn) {
      return nullptr;
    }
    Symbol q = src->deps[0]->fields[0];
    const OpPtr& x = src->inputs[0];
    // Dependent: a non-empty chain of TreeJoins over IN#q.
    std::vector<const Op*> chain;
    const Op* cur = map->deps[0].get();
    while (cur->kind == OpKind::kTreeJoin) {
      chain.push_back(cur);
      cur = cur->inputs[0].get();
    }
    if (chain.empty() || cur->kind != OpKind::kFieldAccess ||
        cur->name != q || cur->inputs[0]->kind != OpKind::kIn) {
      return nullptr;
    }
    Count(&OptimizerStats::fuse_path_step);
    OpPtr rebuilt = x;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      OpPtr tj = std::make_shared<Op>(**it);
      tj->inputs = {std::move(rebuilt)};
      rebuilt = std::move(tj);
    }
    return rebuilt;
  }

  // '//' collapse: TreeJoin[child::T](TreeJoin[descendant-or-self::node()]
  // (X)) => TreeJoin[descendant::T](X) — avoids materializing every node.
  OpPtr CollapseDescendantStep(const OpPtr& op) {
    if (op->kind != OpKind::kTreeJoin || op->axis != Axis::kChild) {
      return nullptr;
    }
    const OpPtr& inner = op->inputs[0];
    if (inner->kind != OpKind::kTreeJoin ||
        inner->axis != Axis::kDescendantOrSelf ||
        inner->ntest.kind != ItemTest::Kind::kAnyNode) {
      return nullptr;
    }
    Count(&OptimizerStats::collapse_descendant);
    OpPtr tj = std::make_shared<Op>(*op);
    tj->axis = Axis::kDescendant;
    tj->inputs = {inner->inputs[0]};
    return tj;
  }

  // (remove map): MapConcat{Op1}([]) => Op1.
  OpPtr RemoveMap(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    if (op->inputs[0]->kind != OpKind::kEmptyTuples) return nullptr;
    Count(&OptimizerStats::remove_map);
    return op->deps[0];
  }

  // (insert product): MapConcat{Op1}(Op2) => Product(Op2, Op1) when Op1 is
  // independent of IN.
  OpPtr InsertProduct(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    if (op->inputs[0]->kind == OpKind::kEmptyTuples) return nullptr;
    if (FreeIn(*op->deps[0])) return nullptr;
    // Keep single-tuple deps (let bindings of independent expressions) as
    // maps: turning them into products buys nothing.
    if (op->deps[0]->kind == OpKind::kTupleConstruct) return nullptr;
    Count(&OptimizerStats::insert_product);
    return OpProduct(op->inputs[0], op->deps[0]);
  }

  // Predicate split: Select{op:and(P,Q)}(X) => Select{P}(Select{Q}(X)).
  OpPtr SplitSelect(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    const Op& pred = *op->deps[0];
    if (pred.kind != OpKind::kCall || pred.name != Symbol("op:and") ||
        pred.inputs.size() != 2) {
      return nullptr;
    }
    Count(&OptimizerStats::split_select);
    return OpSelect(pred.inputs[0],
                    OpSelect(pred.inputs[1], op->inputs[0]));
  }

  // (insert join): Select{Op1}(Product(Op2,Op3)) => Join{Op1}(Op2,Op3).
  OpPtr InsertJoin(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    if (op->inputs[0]->kind != OpKind::kProduct) return nullptr;
    Count(&OptimizerStats::insert_join);
    return OpJoin(op->deps[0], op->inputs[0]->inputs[0],
                  op->inputs[0]->inputs[1]);
  }

  // Residual-predicate merge: Select{P}(Join{Q}(A,B)) => Join{P and Q}(A,B)
  // so a multi-predicate join reaches the physical operator in one piece
  // (the extension Section 6 mentions) and (insert outer-join) can fire.
  OpPtr MergeSelectIntoJoin(const OpPtr& op) {
    if (op->kind != OpKind::kSelect) return nullptr;
    if (op->inputs[0]->kind != OpKind::kJoin) return nullptr;
    const OpPtr& join = op->inputs[0];
    Count(&OptimizerStats::insert_join);
    OpPtr both = OpCall(Symbol("op:and"), {op->deps[0], join->deps[0]});
    return OpJoin(std::move(both), join->inputs[0], join->inputs[1]);
  }

  static bool ContainsSelect(const Op& op) {
    if (op.kind == OpKind::kSelect || op.kind == OpKind::kJoin) return true;
    for (const OpPtr& d : op.deps) {
      if (ContainsSelect(*d)) return true;
    }
    for (const OpPtr& i : op.inputs) {
      if (ContainsSelect(*i)) return true;
    }
    return false;
  }

  /// Decomposes `plan` as a chain of unary item operators over a MapToItem:
  /// returns the MapToItem node and rebuilds the chain over a fresh IN leaf
  /// (the post-grouping operator). Null if the shape does not match.
  static const Op* FindMapToItemChain(const OpPtr& plan, OpPtr* chain_over_in) {
    // Unary item operators admissible in the chain: single-input calls,
    // type operators, tree joins — anything with exactly one input and no
    // IN-rebinding dependents.
    const Op* cur = plan.get();
    std::vector<const Op*> chain;
    while (true) {
      if (cur->kind == OpKind::kMapToItem) break;
      bool unary_item = (cur->kind == OpKind::kCall ||
                         cur->kind == OpKind::kTypeAssert ||
                         cur->kind == OpKind::kCast ||
                         cur->kind == OpKind::kTreeJoin ||
                         cur->kind == OpKind::kValidate ||
                         cur->kind == OpKind::kTypeMatches) &&
                        cur->inputs.size() == 1 && cur->deps.empty();
      if (!unary_item) return nullptr;
      chain.push_back(cur);
      cur = cur->inputs[0].get();
    }
    // Rebuild the chain with IN replacing the MapToItem result.
    OpPtr rebuilt = OpIn();
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      OpPtr node = std::make_shared<Op>(**it);
      node->inputs = {std::move(rebuilt)};
      rebuilt = std::move(node);
    }
    *chain_over_in = std::move(rebuilt);
    return cur;
  }

  // (insert group-by): a MapConcat whose dependent is a unary tuple
  // constructor over an item-operator chain ending in a correlated
  // MapToItem becomes a trivial GroupBy (the paper's key observation).
  OpPtr InsertGroupBy(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kTupleConstruct || dep->fields.size() != 1) {
      return nullptr;
    }
    OpPtr post;
    const Op* map_to_item = FindMapToItemChain(dep->inputs[0], &post);
    if (map_to_item == nullptr) return nullptr;
    const OpPtr& op2 = map_to_item->deps[0];    // per-item operator
    const OpPtr& op3 = map_to_item->inputs[0];  // nested tuple stream
    if (!FreeIn(*op3)) return nullptr;          // only unnest correlated streams
    // Heuristic guard: unnesting pays off when the nested stream filters
    // (a where clause / predicate that can become a join); plain correlated
    // paths are cheaper evaluated directly.
    if (!ContainsSelect(*op3)) return nullptr;
    Count(&OptimizerStats::insert_group_by);
    Symbol null_field = Fresh("null");
    OpPtr gb = OpGroupBy(dep->fields[0], {}, {null_field}, std::move(post),
                         op2, OpOMap(null_field, op3));
    return OpMapConcat(std::move(gb), op->inputs[0]);
  }

  // (map through group-by): the new outer index is the major partition key.
  OpPtr MapThroughGroupBy(const OpPtr& op) {
    if (op->kind != OpKind::kMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kGroupBy) return nullptr;
    Count(&OptimizerStats::map_through_group_by);
    Symbol ind = Fresh("index");
    Symbol null_field = Fresh("null");
    // The outer index leads, so each outer tuple's partitions stay
    // together and in the MapConcat's order.
    std::vector<Symbol> inds = {ind};
    inds.insert(inds.end(), dep->fields.begin(), dep->fields.end());
    std::vector<Symbol> nulls = dep->fields2;
    nulls.push_back(null_field);
    return OpGroupBy(
        dep->name, std::move(inds), std::move(nulls), dep->deps[0],
        dep->deps[1],
        OpOMapConcat(null_field, dep->inputs[0],
                     OpMapIndex(ind, op->inputs[0])));
  }

  // (remove duplicate null), applied in GroupBy context so the dropped
  // null field also leaves the GroupBy's null list.
  OpPtr RemoveDuplicateNull(const OpPtr& op) {
    if (op->kind != OpKind::kGroupBy) return nullptr;
    const OpPtr& input = op->inputs[0];
    if (input->kind != OpKind::kOMapConcat) return nullptr;
    const OpPtr& inner = input->deps[0];
    if (inner->kind != OpKind::kOMap) return nullptr;
    Count(&OptimizerStats::remove_duplicate_null);
    std::vector<Symbol> nulls;
    for (Symbol n : op->fields2) {
      if (n != inner->name) nulls.push_back(n);
    }
    return OpGroupBy(op->name, op->fields, std::move(nulls), op->deps[0],
                     op->deps[1],
                     OpOMapConcat(input->name, inner->inputs[0],
                                  input->inputs[0]));
  }

  // (insert outer-join): OMapConcat[n]{Join{P}(IN,B)}(A) =>
  // LOuterJoin[n]{P}(A,B).
  OpPtr InsertOuterJoin(const OpPtr& op) {
    if (op->kind != OpKind::kOMapConcat) return nullptr;
    const OpPtr& dep = op->deps[0];
    if (dep->kind != OpKind::kJoin) return nullptr;
    if (dep->inputs[0]->kind != OpKind::kIn) return nullptr;
    if (FreeIn(*dep->inputs[1])) return nullptr;
    Count(&OptimizerStats::insert_outer_join);
    return OpLOuterJoin(op->name, dep->deps[0], op->inputs[0],
                        dep->inputs[1]);
  }

  // (lift product): the Product(IN, X) that (insert product) leaves for an
  // uncorrelated inner `for` moves above an operator that does not look at
  // IN's fields, so the correlation surfaces where (insert join) and
  // (insert outer-join) can see it:
  //   MapIndex[q](Product(IN,X))        => Product(IN, MapIndex[q](X))
  //   Join{P}(Product(IN,X), B)         => Product(IN, Join{P}(X, B))
  //   LOuterJoin[q]{P}(Product(IN,X),B) => Product(IN, LOuterJoin[q]{P}(X,B))
  //   GroupBy[..]{..}(Product(IN,X))    => Product(IN, GroupBy[..]{..}(X))
  // IN is a single tuple, so numbering, matching and partitioning X alone
  // is the same as on IN x X. Side conditions: B is independent of IN, and
  // the predicate, the GroupBy's index / null fields and its dependents
  // read only fields bound inside X (and B).
  OpPtr LiftProduct(const OpPtr& op) {
    bool join = op->kind == OpKind::kJoin || op->kind == OpKind::kLOuterJoin;
    if (!IsMapIndex(*op) && !join && op->kind != OpKind::kGroupBy) {
      return nullptr;
    }
    const OpPtr& prod = op->inputs[0];
    if (prod->kind != OpKind::kProduct ||
        prod->inputs[0]->kind != OpKind::kIn || FreeIn(*prod->inputs[1])) {
      return nullptr;
    }
    const OpPtr& x = prod->inputs[1];
    std::set<Symbol> bound;
    CollectIntroducedFields(*x, &bound);
    if (join) {
      if (FreeIn(*op->inputs[1])) return nullptr;
      CollectIntroducedFields(*op->inputs[1], &bound);
      if (!ReadsOnly(*op->deps[0], bound)) return nullptr;
    }
    if (op->kind == OpKind::kGroupBy) {
      for (Symbol f : op->fields) {
        if (bound.count(f) == 0) return nullptr;
      }
      for (Symbol f : op->fields2) {
        if (bound.count(f) == 0) return nullptr;
      }
      if (!ReadsOnly(*op->deps[0], bound) || !ReadsOnly(*op->deps[1], bound)) {
        return nullptr;
      }
    }
    Count(&OptimizerStats::lift_product);
    OpPtr lifted = std::make_shared<Op>(*op);
    lifted->inputs[0] = x;
    return OpProduct(prod->inputs[0], std::move(lifted));
  }

  // The outer-map rules, applied from the enclosing GroupBy G. They find
  // an OMapConcat[n]{D}(S) on G's left spine (through MapIndex /
  // MapIndexStep and LOuterJoin left inputs) where G's null list contains
  // n and S = MapIndex[s](..) numbers the outer tuples. Every rule keeps
  // all non-null rows and their order; the n-null rows may gain fields,
  // which is safe because every GroupBy that reads them lists n as null.
  OpPtr UnnestOuterMap(const OpPtr& g) {
    if (g->kind != OpKind::kGroupBy) return nullptr;
    std::vector<const Op*> spine;  // G .. parent of the OMapConcat
    const Op* cur = g.get();
    OpPtr node = g->inputs[0];
    while (node->kind != OpKind::kOMapConcat) {
      if (!IsMapIndex(*node) && node->kind != OpKind::kLOuterJoin) {
        return nullptr;
      }
      spine.push_back(cur);
      cur = node.get();
      node = node->inputs[0];
    }
    spine.push_back(cur);
    Symbol n = node->name;
    const OpPtr& s = node->inputs[0];
    if (!Contains(g->fields2, n) || !IsMapIndex(*s)) return nullptr;
    OpPtr replaced = MapThroughGroupByOuter(node);
    if (replaced == nullptr) replaced = PushOuterMap(node);
    if (replaced == nullptr) return nullptr;
    // Rebuild the spine above the replaced node.
    for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
      OpPtr copy = std::make_shared<Op>(**it);
      copy->inputs[0] = std::move(replaced);
      replaced = std::move(copy);
    }
    return replaced;
  }

  // (map through group-by) for an outer map:
  //   OMapConcat[n]{GroupBy[x,inds,nulls]{P}{Q}(R)}(S=MapIndex[s](..))
  //     => GroupBy[x,[s]+inds,nulls+[n]]{P}{Q}(OMapConcat[n]{R}(S))
  // Prefixing the outer index keeps each outer tuple's partitions apart and
  // in order; an outer tuple with empty R becomes one n-null partition.
  // Side conditions: P is safe on that empty partition, and x is read only
  // by pre-grouping operators of GroupBys that list n as null (so the
  // x = P(()) the null partition now carries is never looked at).
  OpPtr MapThroughGroupByOuter(const OpPtr& omap) {
    const OpPtr& inner = omap->deps[0];
    if (inner->kind != OpKind::kGroupBy) return nullptr;
    Symbol n = omap->name;
    Symbol s = omap->inputs[0]->name;
    if (!SafeOnEmptyPartition(*inner->deps[0]) || Contains(inner->fields, s)) {
      return nullptr;
    }
    auto guarded = facts_.null_guarded_reads.find({inner->name, n});
    int guarded_reads =
        guarded == facts_.null_guarded_reads.end() ? 0 : guarded->second;
    if (facts_.reads[inner->name] != guarded_reads) return nullptr;
    Count(&OptimizerStats::outer_map_through_group_by);
    std::vector<Symbol> inds = {s};
    inds.insert(inds.end(), inner->fields.begin(), inner->fields.end());
    std::vector<Symbol> nulls = inner->fields2;
    nulls.push_back(n);
    return OpGroupBy(inner->name, std::move(inds), std::move(nulls),
                     inner->deps[0], inner->deps[1],
                     OpOMapConcat(n, inner->inputs[0], omap->inputs[0]));
  }

  // (push outer map): moves OMapConcat[n] below the dependent's operator
  // until (insert outer-join) applies:
  //   OMapConcat[n]{LOuterJoin[m]{P}(L,B)}(S)
  //     => LOuterJoin[m]{P}(OMapConcat[n]{L}(S), B)
  //     when B is independent of IN, P is false (and error-free) on an
  //     n-null row, m is never read, and every GroupBy listing m also
  //     lists n (n-null rows now carry m = true);
  //   OMapConcat[n]{MapIndex[k](L)}(S=MapIndex[s](..))
  //     => MapIndex[k](OMapConcat[n]{L}(S))
  //     when k is never read and every GroupBy keyed on k is keyed on s
  //     first: numbering k across all outer tuples instead of per outer
  //     tuple then splits and orders partitions identically.
  OpPtr PushOuterMap(const OpPtr& omap) {
    Symbol n = omap->name;
    const OpPtr& dep = omap->deps[0];
    const OpPtr& s = omap->inputs[0];
    if (dep->kind == OpKind::kLOuterJoin) {
      if (FreeIn(*dep->inputs[1])) return nullptr;
      std::set<Symbol> bound;
      CollectIntroducedFields(*dep->inputs[0], &bound);
      if (!NullRejecting(*dep->deps[0], bound) ||
          facts_.reads[dep->name] != 0) {
        return nullptr;
      }
      for (const std::vector<Symbol>& nulls : facts_.nulled_by[dep->name]) {
        if (!Contains(nulls, n)) return nullptr;
      }
      Count(&OptimizerStats::push_outer_map);
      return OpLOuterJoin(dep->name, dep->deps[0],
                          OpOMapConcat(n, dep->inputs[0], s), dep->inputs[1]);
    }
    if (IsMapIndex(*dep)) {
      Symbol k = dep->name;
      const std::vector<std::vector<Symbol>>& keyed = facts_.keyed_by[k];
      if (facts_.reads[k] != 0 || keyed.empty()) return nullptr;
      for (const std::vector<Symbol>& keys : keyed) {
        auto outer = std::find(keys.begin(), keys.end(), s->name);
        if (outer == keys.end() || std::find(keys.begin(), outer, k) != outer) {
          return nullptr;
        }
      }
      Count(&OptimizerStats::push_outer_map);
      OpPtr pushed = std::make_shared<Op>(*dep);
      pushed->inputs[0] = OpOMapConcat(n, dep->inputs[0], s);
      return pushed;
    }
    return nullptr;
  }

  std::set<Symbol> used_;
  PlanFacts facts_;
  OptimizerStats* stats_;
  bool changed_ = false;
};

/// Final pass: MapIndex[q] => MapIndexStep[q] when q is never read via
/// FieldAccess (it only keys a GroupBy), matching the paper's final plan P2.
OpPtr IndexToIndexStep(OpPtr op, const std::map<Symbol, int>& reads,
                       OptimizerStats* stats) {
  for (OpPtr& d : op->deps) d = IndexToIndexStep(std::move(d), reads, stats);
  for (OpPtr& i : op->inputs) {
    i = IndexToIndexStep(std::move(i), reads, stats);
  }
  for (OrderSpecOp& s : op->specs) {
    s.key = IndexToIndexStep(std::move(s.key), reads, stats);
  }
  if (op->kind == OpKind::kMapIndex && reads.count(op->name) == 0) {
    op->kind = OpKind::kMapIndexStep;
    if (stats != nullptr) stats->index_to_index_step++;
  }
  return op;
}

}  // namespace

OpPtr OptimizePlan(OpPtr plan, OptimizerStats* stats) {
  Rewriter rw(*plan, stats);
  for (int pass = 0; pass < 64; pass++) {
    rw.reset_changed();
    rw.Analyze(*plan);
    plan = rw.Pass(std::move(plan));
    if (!rw.changed()) break;
  }
  std::map<Symbol, int> reads;
  CountReads(*plan, &reads);
  plan = IndexToIndexStep(std::move(plan), reads, stats);
  return plan;
}

void OptimizeQuery(CompiledQuery* query, OptimizerStats* stats) {
  query->plan = OptimizePlan(std::move(query->plan), stats);
  for (auto& [name, fn] : query->functions) {
    fn.plan = OptimizePlan(std::move(fn.plan), stats);
  }
  for (auto& [name, plan] : query->globals) {
    if (plan != nullptr) plan = OptimizePlan(std::move(plan), stats);
  }
}

}  // namespace xqc
