/* The greedy walks of Sparse_router in C, shared by its batch path
   (sparse_route_stubs.c) and the storage read loop
   (lib/storage/read_stubs.c).

   A walk takes the OCaml walk's hop at every step, so outcomes, hop
   counts and stuck nodes are equal to Sparse_router's OCaml walks
   (pinned by test/test_sparse.ml against its model, and by the
   storage tests and goldens against --no-batch).

   No allocation, no callbacks, no exceptions; callers check src, dst
   and the mask length. The sanitize profile checks every index into
   the ids (bounds.h). */

#ifndef RCM_SPARSE_WALK_H
#define RCM_SPARSE_WALK_H

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

#include "bounds.h"

/* Sparse_router.walk_kind's codes: the ring walk (Symphony links),
   the prefix walk correcting the leading differing bit (tree) or
   falling back to lower ones (xor), and the ring walk over Chord
   fingers. */
enum { SPARSE_RING = 0, SPARSE_TREE = 1, SPARSE_XOR = 2, SPARSE_CHORD = 3 };

struct sparse {
  const value *ids;       /* the sorted ids: an OCaml int array */
  const int32_t *targets; /* degree contacts per node, -1 when missing */
  const intnat *words;    /* alive mask: the low 32 bits of each word */
  intnat degree, bits, kind;
};

/* An Overlay.Sparse.t, whose fields are, in order: bits, geometry,
   ids and the contact block, an Overlay.Flat.t (offsets, targets,
   uniform degree); with the mask's words and a walk kind. */
static inline struct sparse sparse_of(value overlay, value words, intnat kind)
{
  struct sparse o;
  value contacts = Field(overlay, 3);
  o.ids = (const value *)Field(overlay, 2);
  o.targets = (const int32_t *)Caml_ba_data_val(Field(contacts, 1));
  o.words = (const intnat *)Caml_ba_data_val(words);
  o.degree = Long_val(Field(contacts, 2));
  o.bits = Long_val(Field(overlay, 0));
  o.kind = kind;
  return o;
}

static inline intnat sparse_id(const struct sparse *o, intnat v)
{
  return Long_val(AT_PTR(o->ids, v));
}

static inline int sparse_alive(const struct sparse *o, intnat v)
{
  return (int)((o->words[v >> 5] >> (v & 31)) & 1);
}

/* Greedy clockwise: hop to the alive contact closest to dst clockwise,
   as long as it is closer than the current node. The distance test
   comes before the liveness one, which the OCaml walk takes in the
   other order; both must hold, and neither has an effect, so the hop
   is the same. */
static inline intnat sparse_ring_walk(const struct sparse *o, intnat src, intnat dst,
                                      intnat *hops)
{
  intnat mask = ((intnat)1 << o->bits) - 1, id_dst = sparse_id(o, dst), cur = src;
  intnat remaining = (id_dst - sparse_id(o, src)) & mask;
  *hops = 0;
  while (remaining > 0) {
    const int32_t *row = o->targets + cur * o->degree;
    intnat best = -1, best_remaining = remaining;
    for (intnat k = 0; k < o->degree; k++) {
      intnat c = row[k];
      if (c >= 0) {
        intnat after = (id_dst - sparse_id(o, c)) & mask;
        if (after < best_remaining && sparse_alive(o, c)) {
          best = c;
          best_remaining = after;
        }
      }
    }
    if (best < 0)
      return cur;
    cur = best;
    remaining = best_remaining;
    ++*hops;
  }
  return -1;
}

/* The ring walk over Chord fingers (Sparse.build's ring), where finger
   i is the first node clockwise from id_cur + 2^i. The fingers with
   2^i <= remaining land after cur and no later than dst, which is a
   node, at offsets from cur that do not decrease with i; every other
   finger lands past dst or on cur itself, and neither is closer to
   dst. So the alive finger the ring walk's scan keeps, the one
   closest to dst, is the alive one of highest index among the first
   floor(log2 remaining) + 1, and the scan can start there and go
   down: the same hop for one or two reads instead of degree. */
static inline intnat sparse_chord_walk(const struct sparse *o, intnat src, intnat dst,
                                       intnat *hops)
{
  intnat mask = ((intnat)1 << o->bits) - 1, id_dst = sparse_id(o, dst), cur = src;
  intnat remaining = (id_dst - sparse_id(o, src)) & mask;
  *hops = 0;
  while (remaining > 0) {
    const int32_t *row = o->targets + cur * o->degree;
    intnat next = -1;
    for (intnat i = 63 - __builtin_clzll((unsigned long long)remaining); i >= 0 && next < 0; i--)
      if (sparse_alive(o, row[i]))
        next = row[i];
    if (next < 0)
      return cur;
    cur = next;
    remaining = (id_dst - sparse_id(o, cur)) & mask;
    ++*hops;
  }
  return -1;
}

/* Prefix routing: the level-l contact (entry l - 1) corrects bit l. */
static inline intnat sparse_prefix_walk(const struct sparse *o, intnat src, intnat dst,
                                        intnat *hops)
{
  intnat id_dst = sparse_id(o, dst), cur = src;
  *hops = 0;
  while (cur != dst) {
    intnat diff = sparse_id(o, cur) ^ id_dst, next = -1;
    const int32_t *slot0 = o->targets + cur * o->degree - 1;
    intnat level = o->bits - 63 + __builtin_clzll((unsigned long long)diff);
    intnat last = o->kind == SPARSE_XOR ? o->bits : level;
    for (; next < 0 && level <= last; level++)
      if (diff & ((intnat)1 << (o->bits - level))) {
        intnat c = slot0[level];
        if (c >= 0 && sparse_alive(o, c))
          next = c;
      }
    if (next < 0)
      return cur;
    cur = next;
    ++*hops;
  }
  return -1;
}

/* The walk from src to dst: -1 when delivered, else the node it is
   stuck at; the hops taken in *hops. */
static inline intnat sparse_walk(const struct sparse *o, intnat src, intnat dst,
                                 intnat *hops)
{
  switch (o->kind) {
  case SPARSE_CHORD:
    return sparse_chord_walk(o, src, dst, hops);
  case SPARSE_RING:
    return sparse_ring_walk(o, src, dst, hops);
  default:
    return sparse_prefix_walk(o, src, dst, hops);
  }
}

#endif
