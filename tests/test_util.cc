#include "test_util.h"

#include <gtest/gtest.h>

#include "src/interp/interpreter.h"
#include "src/xml/serializer.h"
#include "src/xml/xml_parser.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace xqc {
namespace testutil {

NodePtr MustParseXml(const std::string& xml) {
  Result<NodePtr> r = ParseXml(xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << xml;
  return r.ok() ? r.take() : nullptr;
}

Result<Sequence> Interp(const std::string& query, DynamicContext* ctx) {
  Result<Query> parsed = ParseXQuery(query);
  if (!parsed.ok()) return parsed.status();
  Result<Query> core = NormalizeQuery(parsed.value());
  if (!core.ok()) return core.status();
  Interpreter interp(&core.value(), ctx);
  return interp.Run();
}

std::string InterpToString(const std::string& query, DynamicContext* ctx) {
  Result<Sequence> r = Interp(query, ctx);
  if (!r.ok()) return "ERROR:" + r.status().code();
  return SerializeSequence(r.value());
}

std::string InterpToString(const std::string& query) {
  DynamicContext ctx;
  return InterpToString(query, &ctx);
}

namespace {

bool HoldsJoinOrGroupBy(const Op& op) {
  if (op.kind == OpKind::kJoin || op.kind == OpKind::kLOuterJoin ||
      op.kind == OpKind::kGroupBy) {
    return true;
  }
  for (const OpPtr& d : op.deps) {
    if (HoldsJoinOrGroupBy(*d)) return true;
  }
  for (const OpPtr& i : op.inputs) {
    if (HoldsJoinOrGroupBy(*i)) return true;
  }
  return false;
}

void AddShape(const Op& op, UnnestShape* out) {
  if (op.kind == OpKind::kJoin || op.kind == OpKind::kLOuterJoin) {
    out->joins++;
  }
  if (op.kind == OpKind::kProduct && op.inputs[0]->kind == OpKind::kIn) {
    out->in_products++;
  }
  if (op.kind == OpKind::kOMapConcat && HoldsJoinOrGroupBy(*op.deps[0])) {
    out->nested_outer_maps++;
  }
  for (const OpPtr& d : op.deps) AddShape(*d, out);
  for (const OpPtr& i : op.inputs) AddShape(*i, out);
  for (const OrderSpecOp& s : op.specs) AddShape(*s.key, out);
}

}  // namespace

UnnestShape ShapeOf(const Op& plan) {
  UnnestShape out;
  AddShape(plan, &out);
  return out;
}

}  // namespace testutil
}  // namespace xqc
