// Algebraic compilation: XQuery Core -> the Table 1 algebra (Section 4).
//
// Implements the paper's inference rules: FLWOR clauses compile through the
// auxiliary judgment [Clauses]_(Op0) that threads the intermediate tuple
// plan (Figure 2: FOR / FORAT / LET / WHERE / ORDERBY), variables become
// compiled tuple-field accesses IN#q (the "direct compiled memory access"
// the paper credits for much of the algebra speedup), typeswitch compiles
// per Figure 3 into TypeMatches + Cond over a common tuple field, path
// steps become TreeJoin, and `as T` assertions become TypeAssert.
#ifndef XQC_COMPILE_COMPILER_H_
#define XQC_COMPILE_COMPILER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/algebra/op.h"
#include "src/xquery/ast.h"

namespace xqc {

/// A user-defined function compiled to a plan over Var[param] leaves.
struct CompiledFunction {
  Symbol name;
  std::vector<Symbol> params;
  std::vector<std::optional<SequenceType>> param_types;
  std::optional<SequenceType> return_type;
  OpPtr plan;
};

/// Result of the conservative intra-query parallelism eligibility pass
/// (src/opt/parallel_infer.h). Filled by AnalyzeParallel after the DDO
/// annotation pass; consumed by the parallel executor
/// (src/runtime/parallel.h). The Op pointers alias nodes owned by `plan`.
struct ParallelPlanInfo {
  /// Whether the plan can be partitioned.
  bool eligible = false;
  /// The op every unit evaluates over its range of the source: a MapToItem
  /// or a bare collection path. The driver evaluates the rest of the plan
  /// around it.
  const Op* split = nullptr;
  /// The IN-free op the driver evaluates once and cuts into contiguous
  /// ranges: the Call[fn:collection] under the driving path when
  /// `by_document`, else the item plan under the driving MapFromItem.
  const Op* source = nullptr;
  /// Whether the source is a collection's member documents (cut by
  /// document) rather than a driving scan's rows.
  bool by_document = false;
  /// The Join / LOuterJoin ops between the split and the driving scan,
  /// innermost first. The driver builds their (IN-free) right sides once
  /// and shares them read-only with every unit.
  std::vector<const Op*> builds;
  /// Human-readable reason when ineligible (for --explain / tests).
  std::string reason;
};

/// A fully compiled query module.
struct CompiledQuery {
  OpPtr plan;
  /// Prolog variables in declaration order; a null plan means `external`.
  std::vector<std::pair<Symbol, OpPtr>> globals;
  std::unordered_map<Symbol, CompiledFunction> functions;
  /// Intra-query parallelism eligibility (AnalyzeParallel).
  ParallelPlanInfo parallel;
};

/// Compiles a normalized Core query module.
Result<CompiledQuery> CompileQuery(const Query& core);

/// Compiles one normalized Core expression with no variables in tuple
/// scope (free variables become Var[q] algebra-context lookups).
Result<OpPtr> CompileExpr(const ExprPtr& core);

}  // namespace xqc

#endif  // XQC_COMPILE_COMPILER_H_
