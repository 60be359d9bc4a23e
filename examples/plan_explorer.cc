// Plan explorer: walks through the paper's running examples, showing the
// naive plan, the optimized plan, and the effect of each configuration.
//
// Reproduces, from the paper:
//  - the Section 5 GroupBy example (Figure 4's query) with its P2-shaped
//    final plan;
//  - the Section 2 Q8 variant with schema validation (plans P1 -> P2);
//  - the Section 4 positional-path compilation example;
//  - the Table 5 Clio N3 mapping, whose constructor-nested blocks flatten
//    into outer joins that each run once, the inner one on a composite
//    (booktitle, year) key.
//
//   $ ./build/examples/plan_explorer
#include <iostream>

#include "src/clio/clio.h"
#include "src/engine/engine.h"
#include "src/xmark/xmark.h"

namespace {

void Show(const char* title, const std::string& query) {
  xqc::Engine engine;
  std::cout << "==== " << title << " ====\n";
  std::cout << "Query:\n  " << query << "\n\n";

  xqc::Result<xqc::PreparedQuery> q = engine.Prepare(query);
  if (!q.ok()) {
    std::cout << "error: " << q.status().ToString() << "\n";
    return;
  }
  std::cout << "Naive plan (after compilation, before rewriting):\n"
            << q.value().ExplainUnoptimizedPlan() << "\n\n";
  std::cout << "Optimized plan (after the Figure 5 rewritings):\n"
            << q.value().ExplainPlan() << "\n\n";
  const xqc::OptimizerStats& s = q.value().optimizer_stats();
  std::cout << "Rule firings: insert-group-by=" << s.insert_group_by
            << " map-through-group-by=" << s.map_through_group_by
            << " remove-duplicate-null=" << s.remove_duplicate_null
            << " insert-product=" << s.insert_product
            << " insert-join=" << s.insert_join
            << " insert-outer-join=" << s.insert_outer_join
            << " lift-product=" << s.lift_product
            << " outer-map-through-group-by=" << s.outer_map_through_group_by
            << " push-outer-map=" << s.push_outer_map
            << " index->index-step=" << s.index_to_index_step << "\n\n";
}

}  // namespace

int main() {
  // The Section 5 / Figure 4 example.
  Show("Section 5 GroupBy example",
       "for $x in (1,1,3) "
       "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
       "return ($x, $a)");

  // Execute it to show Figure 4's output.
  {
    xqc::Engine engine;
    xqc::DynamicContext ctx;
    auto q = engine.Prepare(
        "for $x in (1,1,3) "
        "let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) "
        "return ($x, $a)");
    auto r = q.value().ExecuteToString(&ctx);
    std::cout << "Result (Figure 4's output column): " << r.value() << "\n\n";
  }

  // The Section 2 Q8 variant (P1 -> P2), with schema type operations
  // interleaved in the nested block.
  Show("Section 2 Q8 variant (schema-validated)", xqc::XMarkQ8Variant());

  // The Section 4 path compilation example.
  Show("Section 4 positional path",
       "declare variable $d external; "
       "$d/descendant::person[position() = 1]");

  // The Table 5 Clio N3 mapping, executed on a small DBLP-like document.
  Show("Table 5 Clio N3 (nested constructor blocks)", xqc::ClioQuery(3));
  {
    xqc::ClioOptions opts;
    opts.target_bytes = 16 * 1024;
    xqc::Result<xqc::NodePtr> doc = xqc::GenerateDblpDocument(opts);
    xqc::Engine engine;
    auto q = engine.Prepare(xqc::ClioQuery(3));
    if (doc.ok() && q.ok()) {
      xqc::DynamicContext ctx;
      ctx.BindVariable(xqc::Symbol("dblp"), {xqc::Item(doc.value())});
      auto r = q.value().Execute(&ctx);
      const xqc::ExecStats& es = q.value().last_exec_stats();
      std::cout << "Executed: " << (r.ok() ? "ok" : r.status().ToString())
                << " hash-joins=" << es.hash_joins
                << " composite-joins=" << es.composite_joins
                << " nl-joins=" << es.nested_loop_joins
                << " group-bys=" << es.group_bys << "\n";
    }
  }
  return 0;
}
