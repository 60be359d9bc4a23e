// Conservative eligibility analysis for intra-query parallelism
// (DESIGN.md "Intra-query parallelism").
//
// A plan is *partitionable* when the executor can evaluate one scan once,
// cut its output into contiguous pieces, run the plan over each piece
// independently, and concatenate the results in piece order with output
// byte-identical to the serial run. Three shapes qualify; the first two cut
// by collection member document, the third by row ranges of a driving
// scan.
//
//   (A)  TreeJoin* ( Call[fn:collection] )
//        — a path expression over the collection. Sound for ANY TreeJoin
//        chain: every axis stays inside its member tree, and
//        ResolveCollection guarantees ordinal-increasing interval blocks,
//        so the serial DDO sort over the union equals the concatenation of
//        the per-document DDO sorts.
//
//   (B)  MapToItem{r} ( Select{p}* ( MapFromItem{f} ( shape A ) ) )
//        — the compiled `for $x in collection(...)>path< where .. return ..`
//        spine. Select and the boundary maps are pointwise, so the tuple
//        stream partitions exactly like the item stream feeding it.
//
//   (C)  Ctor*/Sequence* ( MapToItem{r} ( X ) ), where X is a chain of
//        Select, Map, MapIndex/MapIndexStep, Join/LOuterJoin and GroupBy
//        bottoming out in MapIndex[d]? ( MapFromItem{f} ( path ) )
//        — the flat outer-join / GroupBy plans the Figure 5 rewrites make
//        of nested FLWOR blocks (XMark Q8-Q12, Clio N2-N4). `path` is the
//        driving scan; the MapToItem is the split point. Conditions:
//          * `path` and every join's right input are independent of IN
//            (the driver evaluates them once and shares them read-only);
//          * every GroupBy's key list starts with d, so each group lies
//            inside one row range and every operator of X maps the
//            concatenation of the ranges' streams to the concatenation of
//            its outputs (joins are left-major, GroupBy output is sorted
//            by its keys);
//          * no MapIndex/MapIndexStep field of X (d included) is read by a
//            FieldAccess anywhere in the query — only as a GroupBy key or
//            null field — so numbering local to a range is order-equivalent
//            to the global numbering;
//          * only constructors and Sequence sit above the split, so nothing
//            reads document order across ranges (no TreeJoin / DDO, `is`,
//            `<<` or fn:root over the concatenated output);
//          * the split, `path` and the joins occur once in the query.
//        A positional at-clause that is read reads its index field, and a
//        positional predicate or fn:last() over the result puts a
//        non-constructor above the split: both stay serial. The first
//        candidate MapToItem (in evaluation order) that passes is the
//        split.
//
// Additionally the fn:collection argument must not depend on IN, and the
// whole query (including user functions) must not serialize (fn:put) —
// side-effect order would otherwise become schedule-dependent.
//
// Intra-document range splitting (partitioning one large document by
// pre-order ranges) is sound only when the chain contains exactly ONE
// TreeJoin with a downward axis: its output is a DDO set of nodes of one
// tree, so filtering by disjoint increasing `start` ranges partitions the
// output. With two or more TreeJoins the later joins would DDO-sort across
// nodes produced from different ranges, breaking concat = serial.
#ifndef XQC_OPT_PARALLEL_INFER_H_
#define XQC_OPT_PARALLEL_INFER_H_

#include "src/compile/compiler.h"

namespace xqc {

/// Fills `query->parallel`. Call after AnnotateDdoQuery (the pass only
/// reads the plan; it stores aliasing Op pointers into the info).
void AnalyzeParallel(CompiledQuery* query);

}  // namespace xqc

#endif  // XQC_OPT_PARALLEL_INFER_H_
