// Logical optimization (Section 5): the Figure 5 rewritings.
//
// Standard rules:
//   (remove map)      MapConcat{Op1}([])                      => Op1
//   (insert product)  MapConcat{Op1}(Op2)                     => Product(Op2,Op1)
//                       when Op1 independent of IN
//   (insert join)     Select{Op1}(Product(Op2,Op3))           => Join{Op1}(Op2,Op3)
// New rules (the paper's contribution):
//   (insert group-by)
//     MapConcat{[x: C(MapToItem{Op2}(Op3))]}(Op0)
//       => MapConcat{GroupBy[x,[],[null]]{C(IN)}{Op2}(OMap[null](Op3))}(Op0)
//     where C is a chain of unary item operators and Op3 is correlated
//     (free in IN) — the unary tuple constructor is a trivial GroupBy.
//   (map through group-by)
//     MapConcat{GroupBy[x,inds,nulls]{P}{Q}(R)}(S)
//       => GroupBy[x,[ind1]+inds,nulls+null1]{P}{Q}
//            (OMapConcat[null1]{R}(MapIndex[ind1](S)))
//   (remove duplicate null)
//     GroupBy[...,nulls]{..}(OMapConcat[n1]{OMap[n2](X)}(Y))
//       => GroupBy[...,nulls-n2]{..}(OMapConcat[n1]{X}(Y))
//   (insert outer-join)
//     OMapConcat[n]{Join{P}(IN,B)}(A) => LOuterJoin[n]{P}(A,B)
// Finishing the unnesting (every join and GroupBy then runs once):
//   (lift product)
//     MapIndex[q](Product(IN,X))        => Product(IN,MapIndex[q](X))
//     Join{P}(Product(IN,X),B)          => Product(IN,Join{P}(X,B))
//     LOuterJoin[q]{P}(Product(IN,X),B) => Product(IN,LOuterJoin[q]{P}(X,B))
//     GroupBy[..]{P}{Q}(Product(IN,X))  => Product(IN,GroupBy[..]{P}{Q}(X))
//     where B is independent of IN and P, Q and the GroupBy's index and
//     null fields read only fields bound inside X (and B).
//   (map through group-by), outer-map form
//     OMapConcat[n]{GroupBy[x,inds,nulls]{P}{Q}(R)}(MapIndex[s](S))
//       => GroupBy[x,[s]+inds,nulls+n]{P}{Q}(OMapConcat[n]{R}(MapIndex[s](S)))
//     where the OMapConcat sits on the left spine (MapIndex, LOuterJoin
//     left inputs) of a GroupBy whose null list holds n, P is the identity
//     or an aggregate (safe on the empty partition an n-null row now
//     forms), and x is read only by pre-grouping operators of GroupBys
//     whose null lists hold n.
//   (push outer map), same context
//     OMapConcat[n]{LOuterJoin[m]{P}(L,B)}(S)
//       => LOuterJoin[m]{P}(OMapConcat[n]{L}(S),B)
//     where B is independent of IN, P is a conjunction of general
//     comparisons over navigation paths that is false on rows lacking L's
//     fields, m is never read, and every GroupBy listing m also lists n;
//     OMapConcat[n]{MapIndex[k](L)}(MapIndex[s](S))
//       => MapIndex[k](OMapConcat[n]{L}(MapIndex[s](S)))
//     where k is never read and every GroupBy keyed on k has s before it.
//   These repeat until (insert outer-join) replaces the OMapConcat.
// Supporting rules:
//   Select{op:and(P,Q)}(X)  => Select{P}(Select{Q}(X))   (predicate split)
//   MapIndex[q] => MapIndexStep[q] when q is only used as a grouping index
#ifndef XQC_OPT_OPTIMIZER_H_
#define XQC_OPT_OPTIMIZER_H_

#include "src/algebra/op.h"
#include "src/compile/compiler.h"

namespace xqc {

struct OptimizerStats {
  int remove_map = 0;
  int insert_product = 0;
  int insert_join = 0;
  int insert_group_by = 0;
  int map_through_group_by = 0;
  int remove_duplicate_null = 0;
  int insert_outer_join = 0;
  int lift_product = 0;
  int outer_map_through_group_by = 0;
  int push_outer_map = 0;
  int split_select = 0;
  int index_to_index_step = 0;
  int fuse_path_step = 0;
  int collapse_descendant = 0;
};

/// Rewrites one plan to fixpoint. `stats` (optional) counts rule firings.
OpPtr OptimizePlan(OpPtr plan, OptimizerStats* stats = nullptr);

/// Optimizes the main plan, all function bodies, and global initializers.
void OptimizeQuery(CompiledQuery* query, OptimizerStats* stats = nullptr);

}  // namespace xqc

#endif  // XQC_OPT_OPTIMIZER_H_
