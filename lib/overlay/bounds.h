/* Bounds checks on the C stubs' indexes into OCaml-heap arrays: the
   int arrays and records that route_batch_stubs.c (pairs, pools),
   kbucket_stubs.c (buckets), read_stubs.c (the Store record),
   sparse_stubs.c and sparse_walk.h (sorted ids) read and write in
   place. AddressSanitizer guards only malloc'd memory, which covers
   the Bigarrays but not the OCaml heap, where an index one past an
   array lands silently in the next block.

   The checks compile only when RCM_BOUNDS is defined, which the
   sanitize profile of the root dune file does (make sanitize). There
   an index outside its array prints the file, line, index and length
   and aborts; every other build compiles the bare index, so its code
   is the code without the checks. */

#ifndef RCM_BOUNDS_H
#define RCM_BOUNDS_H

#include <caml/mlvalues.h>

#ifdef RCM_BOUNDS
#include <stdio.h>
#include <stdlib.h>

static inline intnat rcm_bound(intnat i, intnat n, const char *file, int line)
{
  if ((uintnat)i >= (uintnat)n) {
    fprintf(stderr, "%s:%d: index %ld outside [0, %ld)\n", file, line, (long)i, (long)n);
    abort();
  }
  return i;
}

/* i, checked to lie in [0, n); n is evaluated only here. */
#define BOUND(i, n) rcm_bound((i), (intnat)(n), __FILE__, __LINE__)
#else
#define BOUND(i, n) (i)
#endif

/* Field i of an OCaml block (an int array or a record), checked. */
#define AT(block, i) Field((block), BOUND((i), Wosize_val(block)))

/* Entry i of an OCaml array given as a pointer to its first field. */
#define AT_PTR(a, i) ((a)[BOUND((i), Wosize_val((value)(a)))])

#endif
