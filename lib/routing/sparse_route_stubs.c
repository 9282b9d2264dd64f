/* Sparse_router.route's batch path: one walk of sparse_walk.h per
   call, so a route that needs no per-hop callback or loadmap leaves
   OCaml for the whole walk. */

#include <caml/mlvalues.h>

#include "sparse_walk.h"

/* The outcome packed in one int: hops << 31 | (stuck + 1), with
   stuck = -1 when delivered. Hops stay below 2^31 (a walk takes fewer
   hops than there are nodes) and node indexes below 2^30. */
CAMLprim value rcm_sparse_route(value voverlay, value vwords, value vkind, value vsrc,
                                value vdst)
{
  struct sparse o = sparse_of(voverlay, vwords, Long_val(vkind));
  intnat hops, stuck = sparse_walk(&o, Long_val(vsrc), Long_val(vdst), &hops);
  return Val_long((hops << 31) | (stuck + 1));
}
