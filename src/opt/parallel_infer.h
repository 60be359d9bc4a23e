// Conservative eligibility analysis for intra-query parallelism
// (DESIGN.md "Intra-query parallelism").
//
// A plan is *partitionable* when the executor can evaluate one source once,
// cut it into contiguous ranges, run the split op over each range
// independently, and concatenate the results in range order with output
// byte-identical to the serial run. One shape qualifies:
//
//   Ctor*/Sequence* ( S ), where the split S is either
//     * MapToItem{r} ( X ), X a chain of Select, Map, MapIndex/
//       MapIndexStep, Join/LOuterJoin and GroupBy bottoming out in
//       MapIndex[d]? ( MapFromItem{f} ( path ) ) — the FLWOR spines and
//       the flat outer-join / GroupBy plans the Figure 5 rewrites make of
//       nested FLWOR blocks (XMark Q8-Q12, Clio N2-N4); `path` is the
//       driving scan; or
//     * a bare path TreeJoin+ ( Call[fn:collection] ).
//
// The source is the collection's member documents when the driving path is
// TreeJoin* ( Call[fn:collection](u) ), and the driving scan's rows
// otherwise. A document cut is sound for ANY TreeJoin chain: every axis
// stays inside its member tree, and ResolveCollection hands out
// ordinal-increasing interval blocks, so the serial DDO sort over the
// union equals the concatenation of the per-document DDO sorts.
//
// Conditions:
//   * `path` (so u) and every join's right input are independent of IN
//     (the driver evaluates them once and shares them read-only);
//   * every GroupBy's key list starts with d, so each group lies inside one
//     range and every operator of X maps the concatenation of the ranges'
//     streams to the concatenation of its outputs (joins are left-major,
//     GroupBy output is sorted by its keys);
//   * no MapIndex/MapIndexStep field of X (d included) is read by a
//     FieldAccess anywhere in the query — only as a GroupBy key or null
//     field — so numbering local to a range is order-equivalent to the
//     global numbering;
//   * only constructors and Sequence sit above the split, so nothing reads
//     document order across ranges (no TreeJoin / DDO, `is`, `<<` or
//     fn:root over the concatenated output);
//   * the split, the source and the joins occur once in the query;
//   * no plan of the query (user functions included) serializes (fn:put):
//     side-effect order would otherwise become schedule-dependent.
// A positional at-clause that is read reads its index field, and a
// positional predicate, an aggregate or fn:last() over the result puts a
// non-constructor above the split: all stay serial. The first candidate (in
// evaluation order) that passes is the split.
#ifndef XQC_OPT_PARALLEL_INFER_H_
#define XQC_OPT_PARALLEL_INFER_H_

#include "src/compile/compiler.h"

namespace xqc {

/// Fills `query->parallel`. Call after AnnotateDdoQuery (the pass only
/// reads the plan; it stores aliasing Op pointers into the info).
void AnalyzeParallel(CompiledQuery* query);

}  // namespace xqc

#endif  // XQC_OPT_PARALLEL_INFER_H_
