// The complete XQuery logical algebra (Table 1 of the paper).
//
// An operator is written  Op[p1,...]{DOp1,...}(Op1,...):  static parameters
// in brackets, dependent sub-operators in braces (their evaluation receives
// the IN value — a tuple or an item — from the parent), independent inputs
// in parentheses. Plans are trees of Op nodes; kIn is the IN leaf.
//
// Operators are grouped exactly as in the paper: XML operators
// (constructors, navigation, type operators, functional operators, I/O),
// tuple operators (constructors, select/project/join, maps,
// grouping/sorting), and the four XML/tuple boundary operators.
#ifndef XQC_ALGEBRA_OP_H_
#define XQC_ALGEBRA_OP_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/symbol.h"
#include "src/types/seqtype.h"
#include "src/xml/atomic.h"
#include "src/xml/axes.h"

namespace xqc {

enum class OpKind : uint8_t {
  // ---- XML operators: constructors ----
  kSequence,      // Sequence(S(i1), S(i2)) -> S(i3)
  kEmpty,         // Empty() -> ()
  kScalar,        // Scalar[a]() -> a
  kElement,       // Element[q](S(i))
  kAttribute,     // Attribute[q](S(a))
  kText,          // Text(a)
  kComment,       // Comment(a)
  kPI,            // PI(a)
  kDocumentNode,  // document constructor (needed for computed doc ctors)
  // ---- XML operators: navigation, projection ----
  kTreeJoin,      // TreeJoin[axis,nodetest](S(i)) -> S(i), doc order
  kTreeProject,   // TreeProject[paths](i) -> i
  // ---- XML operators: type operators ----
  kCastable,      // Castable[Type](a) -> boolean
  kCast,          // Cast[Type](a) -> a
  kValidate,      // Validate[Type](i) -> i
  kTypeMatches,   // TypeMatches[Type](S(i)) -> boolean
  kTypeAssert,    // TypeAssert[Type](S(i)) -> S(i)
  // ---- XML operators: functional ----
  kVar,           // Var[q]() — algebra-context variable (param/global)
  kCall,          // Call[q](S(i1),...,S(in))
  kCond,          // Cond{S(i1),S(i2)}(boolean)
  // ---- XML operators: I/O ----
  kParse,         // Parse(URI)
  kSerialize,     // Serialize(URI, S(i))
  // ---- the IN leaf ----
  kIn,            // dependent input (tuple or item, resolved by context)
  // ---- tuple operators: constructors ----
  kTupleConstruct,  // [q1,...,qn](S(i1),...,S(in)) -> tuple
  kTupleConcat,     // ++(t1, t2)
  kEmptyTuples,     // ([]) — the table holding one empty tuple
  // ---- tuple operators: select, project, join ----
  kFieldAccess,   // #q(t) -> S(i)
  kSelect,        // Select{t->bool}(S(t))
  kProduct,       // Product(S(t1), S(t2))
  kJoin,          // Join{t1++t2->bool}(S(t1),S(t2))
  kLOuterJoin,    // LOuterJoin[q]{t1++t2->bool}(S(t1),S(t2))
  // ---- tuple operators: maps ----
  kMap,           // Map{t1->t2}(S(t1))
  kOMap,          // OMap[q](S(t1)) — null-flag map
  kMapConcat,     // MapConcat{t1->S(t2)}(S(t1)) — dependent join
  kOMapConcat,    // OMapConcat[q]{t1->S(t2)}(S(t1))
  kMapIndex,      // MapIndex[q](S(t))
  kMapIndexStep,  // MapIndexStep[q](S(t))
  // ---- tuple operators: grouping, sorting ----
  kOrderBy,       // OrderBy{t,t->bool}(S(t))
  kGroupBy,       // GroupBy[qAgg,qIndices,qNulls]{S(t)->i}{t->i}(S(t))
  // ---- XML/tuple boundary ----
  kMapFromItem,   // MapFromItem{i->t}(S(i)) -> S(t)
  kMapToItem,     // MapToItem{t->i}(S(t)) -> S(i)
  kMapSome,       // MapSome{t->bool}(S(t)) -> boolean
  kMapEvery,      // MapEvery{t->bool}(S(t)) -> boolean
};

const char* OpKindName(OpKind k);

struct Op;
using OpPtr = std::shared_ptr<Op>;

/// One order-by key of the OrderBy operator (dependent sub-operator).
struct OrderSpecOp {
  OpPtr key;
  bool descending = false;
  bool empty_greatest = false;
};

/// An algebra operator node.
///
/// Field usage by kind:
///  - `literal`: kScalar value
///  - `name`: Element/Attribute/PI name, Var/Call q, the field q of
///    FieldAccess / OMap / OMapConcat / LOuterJoin / MapIndex /
///    MapIndexStep, and the qAgg field of GroupBy
///  - `fields`: kTupleConstruct field names; kGroupBy index fields
///  - `fields2`: kGroupBy null-flag fields
///  - `stype`: the [Type] parameter of type operators
///  - `axis`/`ntest`: kTreeJoin
///  - `paths`: kTreeProject projection paths
///  - `deps`: dependent sub-operators {}; for kGroupBy deps[0] is the
///    post-grouping operator (applied to each partition's item sequence)
///    and deps[1] the pre-grouping operator (applied per tuple) — the
///    paper's GroupBy[..]{Op2}{Op1}(Op0) order
///  - `inputs`: independent inputs ()
///  - `specs`: kOrderBy keys
struct Op {
  OpKind kind;

  AtomicValue literal;
  Symbol name;
  std::vector<Symbol> fields;
  std::vector<Symbol> fields2;
  SequenceType stype;
  Axis axis = Axis::kChild;
  ItemTest ntest;
  DdoMode ddo = DdoMode::kSort;  // kTreeJoin: inferred by AnnotateDdo
  /// kFieldAccess over IN: the query's only read of the field, so the
  /// evaluator may hand the value over instead of copying it (set by
  /// AnnotateConsumingReads, opt/consume_infer.h).
  bool consume = false;
  std::vector<std::string> paths;
  std::vector<OpPtr> deps;
  std::vector<OpPtr> inputs;
  std::vector<OrderSpecOp> specs;
};

// ---- factory helpers --------------------------------------------------------

OpPtr MakeOp(OpKind kind);
OpPtr OpIn();
OpPtr OpEmpty();
OpPtr OpEmptyTuples();
OpPtr OpScalar(AtomicValue v);
OpPtr OpVar(Symbol q);
OpPtr OpCall(Symbol q, std::vector<OpPtr> args);
OpPtr OpFieldAccess(Symbol q, OpPtr input);      // #q(input)
OpPtr OpInField(Symbol q);                       // IN#q
OpPtr OpTupleConstruct(std::vector<Symbol> fields, std::vector<OpPtr> values);
OpPtr OpSelect(OpPtr pred, OpPtr input);
OpPtr OpProduct(OpPtr left, OpPtr right);
OpPtr OpJoin(OpPtr pred, OpPtr left, OpPtr right);
OpPtr OpLOuterJoin(Symbol null_field, OpPtr pred, OpPtr left, OpPtr right);
OpPtr OpMapConcat(OpPtr dep, OpPtr input);
OpPtr OpOMap(Symbol null_field, OpPtr input);
OpPtr OpOMapConcat(Symbol null_field, OpPtr dep, OpPtr input);
OpPtr OpMapIndex(Symbol field, OpPtr input);
OpPtr OpMapIndexStep(Symbol field, OpPtr input);
OpPtr OpMapFromItem(OpPtr dep, OpPtr input);
OpPtr OpMapToItem(OpPtr dep, OpPtr input);
OpPtr OpGroupBy(Symbol agg, std::vector<Symbol> indices,
                std::vector<Symbol> nulls, OpPtr post, OpPtr pre, OpPtr input);
OpPtr OpTreeJoin(Axis axis, ItemTest test, OpPtr input);
OpPtr OpTypeAssert(SequenceType t, OpPtr input);
OpPtr OpCond(OpPtr then_branch, OpPtr else_branch, OpPtr cond);

/// Deep copy of a plan.
OpPtr CloneOp(const Op& op);

/// Structural equality of two plans (used by rewriting tests).
bool OpEquals(const Op& a, const Op& b);

/// Prints a plan in the paper's notation, e.g.
///   MapConcat{MapFromItem{[p:IN]}(TreeJoin[descendant::person](Var[auction]))}(IN)
/// With `indent` >= 0, pretty-prints with line breaks.
std::string OpToString(const Op& op, bool pretty = false);

/// True iff the operator kind rebinds IN for its dependent sub-operators
/// (maps, selects, joins, group-by, boundary maps). Cond and constructors
/// pass the enclosing IN through to their dependents.
bool RebindsIn(OpKind k);

/// True iff the plan contains a free occurrence of IN — i.e., one not bound
/// by an enclosing dependent-rebinding operator inside the plan. The
/// (insert product) rewriting's "Op1 independent of IN" side condition.
bool FreeIn(const Op& op);

/// Collects fields q appearing as free IN#q accesses in the plan.
void CollectFreeInFields(const Op& op, std::vector<Symbol>* out);

/// Conservative dataflow summary for join-side analysis: the set of tuple
/// fields the plan may read from the enclosing IN tuple — every FieldAccess
/// name in the subtree minus the fields the subtree introduces itself
/// (tuple-constructor fields, index/null/aggregate fields). Sound because
/// compiled plans use globally unique field names.
void CollectOuterFieldUses(const Op& op, std::vector<Symbol>* out);

/// Flattens a predicate's op:and conjunction into its conjunct plans;
/// fn:boolean wrappers are transparent.
void FlattenConjuncts(const Op& pred, std::vector<const Op*>* out);

/// Collects the fields the plan introduces itself: tuple-constructor fields
/// and index / null-flag / aggregate fields. With globally unique field
/// names these can never come from the enclosing IN tuple.
void CollectIntroducedFields(const Op& op, std::set<Symbol>* out);

/// The static layout of a table-valued plan's output tuples: the fields
/// bound inside the plan, and whether the enclosing IN tuple's fields
/// (known only at run time) pass through as well.
struct TupleLayout {
  std::set<Symbol> fields;
  bool open = false;
};
TupleLayout TableLayout(const Op& op);

}  // namespace xqc

#endif  // XQC_ALGEBRA_OP_H_
