/* Select over an alive mask without a survivor list: the C half of
   Overlay.Rank, shared by fill_stubs.c (Rank.create, Rank.select) and
   the routing kernels (route_batch_stubs.c), which draw pairs through
   it.

   The mask is a Bitset payload: nw intnat words, of which only the low
   32 bits count. The index over it is one uint32 array of 2·nw
   entries, 8·nw bytes, the mask's own size (N/4 bytes for N nodes):
     incl[w]  survivors in words 0..w, inclusive (the first nw);
     dir[j]   the word that holds survivor j << shift (the rest, of
              which ceil(count / 2^shift) are used).
   shift is the smallest of 0..5 with count <= nw << shift, so dir
   fits in nw entries. It also means the 2^shift survivors from one
   directory entry to the next span about two words whatever the
   failure level, which is what keeps select's word search to two
   unconditional steps.

   Both arrays count only the mask's first [length] bits, so select
   never returns an id at or past the mask's length, even if stray
   bits were written through Bitset.words.

   select(i), for 0 <= i < count: start at word dir[i >> shift], step
   forward while incl[w] <= i, then take bit (i - incl[w-1]) of word w
   counting set bits from the lowest. rank_select finds that bit by a
   branch-free binary search over the word's bit counts, and runs on
   every CPU. rank_select_pdep finds it with one PDEP, and runs in the
   x86-64-v4 variants only: the pair draw of route_batch_stubs.c and
   Rank.select_variants. AMD before Zen 3 runs PDEP in microcode, but
   none of those CPUs runs x86-64-v4. A 300k-pair draw at 2^20 nodes
   (600k selects) took 9.6 ms with the search and 3.5 ms with PDEP on
   one AVX-512 Xeon vCPU, with the same ids. A bit-clearing loop,
   whose trip count the branch predictor cannot learn, was slower than
   either (route-d20 job_s 1.04 s against 0.91 s for the search).

   No allocation, no exceptions; callers check i. */

#ifndef RCM_RANK_H
#define RCM_RANK_H

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

#include "levels.h"
#ifdef RCM_LEVELS
#include <immintrin.h>
#endif

struct rank {
  const intnat *words;
  const uint32_t *incl, *dir;
  intnat shift, count;
};

/* An Overlay.Rank.t, whose fields are, in order: the mask words, one
   uint32 Bigarray holding incl and then dir, nw, shift and count. */
static inline struct rank rank_of(value v)
{
  struct rank r;
  r.words = (const intnat *)Caml_ba_data_val(Field(v, 0));
  r.incl = (const uint32_t *)Caml_ba_data_val(Field(v, 1));
  r.dir = r.incl + Long_val(Field(v, 2));
  r.shift = Long_val(Field(v, 3));
  r.count = Long_val(Field(v, 4));
  return r;
}

/* The r-th set bit (from 0) of x; r < popcount(x). A binary search:
   count x's set bits per bit pair, nibble and byte, then, halving the
   window from 32 bits to 1, compare r with the count of the window's
   lower half and move to the upper half when r is past it. Each step
   is a compare and a masked subtract, and the loop unrolls, so no
   branch depends on x or r. */
static inline intnat select_in_word(uint32_t x, intnat rank)
{
  uint32_t c2 = x - ((x >> 1) & 0x55555555u);
  uint32_t c4 = (c2 & 0x33333333u) + ((c2 >> 2) & 0x33333333u);
  uint32_t c8 = (c4 + (c4 >> 4)) & 0x0F0F0F0Fu;
  uint32_t counts[5] = {c8 + (c8 >> 8), c8, c4, c2, x}, r = (uint32_t)rank, at = 0;
  for (int k = 0; k < 5; k++) {
    uint32_t half = 16u >> k, c = (counts[k] >> at) & (2 * half - 1), up = r >= c;
    at += up * half;
    r -= c & (0u - up);
  }
  return at;
}

/* The word holding survivor i, and the survivors before it. */
static inline intnat rank_word(const struct rank *r, intnat i, intnat *before)
{
  uint32_t u = (uint32_t)i;
  intnat w = r->dir[i >> r->shift];
  w += r->incl[w] <= u;
  w += r->incl[w] <= u;
  while (r->incl[w] <= u)
    w++;
  *before = w > 0 ? r->incl[w - 1] : 0;
  return w;
}

/* The id of survivor i. */
static inline intnat rank_select(const struct rank *r, intnat i)
{
  intnat before, w = rank_word(r, i, &before);
  return (w << 5) + select_in_word((uint32_t)r->words[w], i - before);
}

#ifdef RCM_LEVELS
/* The same id with the in-word select done by PDEP, which deposits
   1 << r at the r-th set bit of the word: its trailing zero count is
   select_in_word's result. For x86-64-v4 callers only. */
V4 static inline intnat rank_select_pdep(const struct rank *r, intnat i)
{
  intnat before, w = rank_word(r, i, &before);
  uint32_t bit = _pdep_u32((uint32_t)1 << (i - before), (uint32_t)r->words[w]);
  return (w << 5) + __builtin_ctz(bit);
}
#endif

#endif
