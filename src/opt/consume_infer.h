// Consuming-read inference: marks the tuple-field reads whose value the
// evaluator may hand over by move instead of copying (Op::consume).
//
// A read IN#f consumes when it is the only reader of field f in the whole
// compiled query — main plan, prolog globals and function bodies. Readers
// are FieldAccess occurrences (through IN or any other tuple) and the
// fields GroupBy reads directly: its index keys and null flags. After a
// consuming read moves f out of a tuple no operator can look at f again,
// so emptying it is unobservable. The runtime adds the dynamic half of the
// rule (eval.h's EvalCtx::owned_tuple, Tuple::Take): the loop evaluating
// the read must own the tuple and evaluate the read once for it, and no
// copy of the tuple may share the field's storage.
//
// The payoff is constructor copy elision (construct.h): in the flat plans
// of nested FLWOR blocks, each inner block's result reaches its enclosing
// constructor through one GroupBy field read such as Element[pubs](IN#f).
// Handing the sequence over leaves the constructed nodes uniquely held, so
// the constructor adopts them instead of deep-copying them.
#ifndef XQC_OPT_CONSUME_INFER_H_
#define XQC_OPT_CONSUME_INFER_H_

#include "src/compile/compiler.h"

namespace xqc {

/// Sets Op::consume on every qualifying IN#f read of the query (and clears
/// it everywhere else); returns how many reads were marked.
int AnnotateConsumingReads(CompiledQuery* query);

}  // namespace xqc

#endif  // XQC_OPT_CONSUME_INFER_H_
