// Shared helpers for the xqc test suites.
#ifndef XQC_TESTS_TEST_UTIL_H_
#define XQC_TESTS_TEST_UTIL_H_

#include <string>

#include "src/algebra/op.h"
#include "src/base/status.h"
#include "src/runtime/context.h"
#include "src/runtime/eval.h"
#include "src/xml/item.h"

#define ASSERT_OK(expr)                                      \
  do {                                                       \
    const auto& _st = (expr);                                \
    ASSERT_TRUE(_st.ok()) << _st.status().ToString();        \
  } while (0)

#define EXPECT_OK(expr)                                      \
  do {                                                       \
    const auto& _st = (expr);                                \
    EXPECT_TRUE(_st.ok()) << _st.status().ToString();        \
  } while (0)

namespace xqc {
namespace testutil {

/// The default engine options in materializing mode: what the tests that
/// drive PlanEvaluator directly run under.
inline const EngineOptions kMaterializeOptions = {
    .exec_mode = ExecMode::kMaterialize};

/// Parses XML, asserting success.
NodePtr MustParseXml(const std::string& xml);

/// Runs a query through the BASELINE interpreter against a context.
/// Asserts parse/normalize success; returns the evaluation result.
Result<Sequence> Interp(const std::string& query, DynamicContext* ctx);

/// Same but serializes the result; errors return "ERROR:<code>".
std::string InterpToString(const std::string& query, DynamicContext* ctx);

/// Convenience: query with no context.
std::string InterpToString(const std::string& query);

/// What is left of nesting in an optimized plan (the Figure 5 unnesting is
/// complete when both leftover counts are zero).
struct UnnestShape {
  int joins = 0;              // Join + LOuterJoin operators
  int in_products = 0;        // Product(IN, ...) left by (insert product)
  int nested_outer_maps = 0;  // OMapConcat whose dependent holds a join or
                              // GroupBy (runs once per outer tuple)
};
UnnestShape ShapeOf(const Op& plan);

}  // namespace testutil
}  // namespace xqc

#endif  // XQC_TESTS_TEST_UTIL_H_
