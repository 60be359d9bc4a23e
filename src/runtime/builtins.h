// The built-in function library: fn:* (F&O subset), op:* (operator
// backing functions produced by normalization), and fs:* (formal-semantics
// helpers). The paper notes a number of built-ins are required for
// completeness of the algebra (Section 3); Call[q] dispatches here.
#ifndef XQC_RUNTIME_BUILTINS_H_
#define XQC_RUNTIME_BUILTINS_H_

#include <vector>

#include "src/base/status.h"
#include "src/base/symbol.h"
#include "src/runtime/context.h"
#include "src/xml/item.h"

namespace xqc {

/// True iff `name` names a built-in function.
bool IsBuiltinFunction(Symbol name);

/// Calls a built-in. Arity is validated; errors carry W3C codes.
Result<Sequence> CallBuiltin(Symbol name, const std::vector<Sequence>& args,
                             DynamicContext* ctx);

/// The integers of `A to B`: [first, last], empty when last < first.
struct IntegerRange {
  int64_t first = 1;
  int64_t last = 0;
};

/// op:to's bounds: each operand atomized to at most one item and cast to
/// xs:integer (an empty operand gives the empty range), with the range's
/// items charged to `guard` (nullptr: none). The op:to builtin fills the
/// range from it; MapFromItem over `A to B` produces the integers on
/// demand. Both then run one guard Check() per kRangeItemsPerCheck items.
Result<IntegerRange> OpenIntegerRange(const Sequence& lo, const Sequence& hi,
                                      QueryGuard* guard);
inline constexpr int64_t kRangeItemsPerCheck = 1024;

/// Lists all built-in function names (for documentation and tests).
std::vector<Symbol> AllBuiltinFunctions();

/// fn:round semantics — half toward positive infinity, floor(x + 0.5) — with
/// NaN and ±INF passing through (F&O 6.4.4). fn:substring / fn:subsequence
/// position arguments round with this, NOT half-away-from-zero std::round;
/// they differ at -N.5. Also used by the streaming subsequence prefix bound.
double XQueryRound(double d);

}  // namespace xqc

#endif  // XQC_RUNTIME_BUILTINS_H_
