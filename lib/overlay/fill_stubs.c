/* The per-node passes of a static trial, in C: the failure-mask sample
   (Failure.sample), the rank index over a mask (Rank.create) and the
   survivor list (Bitset.members); and the one per-entry pass of a
   table build, Symphony's shortcut column (Table.build).

   Why C: at 2^20 nodes each pass is a million-iteration loop whose
   body is a handful of ALU ops. In OCaml every per-node
   Splitmix.bernoulli is an out-of-line call (dune's default profile
   compiles library modules -opaque, so nothing inlines across them).
   Even with the SplitMix step inlined and its state unboxed, an OCaml
   mask loop took over twice as long as a scalar C one at 2^20 nodes
   (9.0 vs 3.7 ms on one 2.0 GHz Xeon vCPU). The mask loop below goes
   further: it computes each draw from the generator's counter and
   tests it as an integer, both exact, so it vectorises, and it is
   built once per x86-64 level (v4, v3, baseline) with the best one
   the CPU runs picked per call: 0.8 ms for 2^20 nodes with AVX-512.
   The rank index replaces the survivor list on the static trial path
   (rank.h); Bitset.members stays for callers that need the list.

   Bit-identity contract (pinned by test/test_batch.ml against a
   bernoulli loop, for every compiled variant): the mask loop replays
   Splitmix.bernoulli draw for draw. It starts from the caller's
   Prng.Splitmix state and does not hand it back; the caller advances
   its generator by the draw count, one per node
   (Prng.Splitmix.advance). A pass whose draw count depends on the
   values drawn (rejection sampling) cannot be split this way: it must
   take the generator itself and write the final state back, as the
   hypercube lane in route_batch_stubs.c does.

   Memory discipline: no allocation, no callbacks, no exceptions;
   argument checks are the OCaml callers'. */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <stdint.h>

#include "levels.h"
#include "rank.h"
#include "splitmix.h"

/* Failure.sample: node v is dead iff its draw, read as Splitmix.float,
   is below q — exactly Splitmix.bernoulli ~p:q, one draw per node, id
   ascending. Two rewrites make the loop vectorise without changing a
   bit:

   - SplitMix64 is counter-based: every step adds the same gamma to the
     state, so draw k is mix(s0 + (k+1)·gamma) and no draw waits for
     the one before it.
   - The float test is an integer test. Splitmix.float is
     x·2^-53 with x = z >> 11 < 2^53, and both x·2^-53 and q·2^53 are
     exact (scaling by a power of two), so x·2^-53 < q holds exactly
     when x < q·2^53, that is when x < ceil(q·2^53) = threshold. Both
     sides are below 2^63, so the compare is a signed one, which AVX2
     has.

   Every word is written whole, so the bits at and above n in the last
   one stay zero. */
static inline __attribute__((always_inline)) void
sample_words(intnat *words, intnat n, int64_t threshold, uint64_t state)
{
  for (intnat base = 0; base < n; base += 32) {
    intnat width = n - base < 32 ? n - base : 32;
    uint64_t first = state + ((uint64_t)base + 1) * SPLITMIX_GAMMA, word = 0;
    for (intnat b = 0; b < width; b++) {
      uint64_t z = splitmix_mix(first + (uint64_t)b * SPLITMIX_GAMMA);
      word |= (uint64_t)((int64_t)(z >> 11) >= threshold) << b;
    }
    words[base >> 5] = (intnat)word;
  }
}

/* The loop is compiled once per x86-64 level (AVX-512 at v4, AVX2 at
   v3, SSE2 for the rest) and the best one the CPU runs is picked per
   call, as target_clones would; explicit variants rather than
   target_clones so that the tests can call each one directly. On
   other targets and compilers there is one plain build. In a C
   micro-benchmark at 2^20 nodes on one AVX-512 Xeon vCPU the three
   took 0.55–0.7, 1.1–1.3 and 2.1–3.0 ns per node, against 3.2–3.9 for
   the scalar float loop they replace. */
typedef void sample_fn(intnat *, intnat, int64_t, uint64_t);

#ifdef RCM_LEVELS
V4 static void
sample_v4(intnat *words, intnat n, int64_t threshold, uint64_t state)
{
  sample_words(words, n, threshold, state);
}

__attribute__((target("arch=x86-64-v3"))) static void
sample_v3(intnat *words, intnat n, int64_t threshold, uint64_t state)
{
  sample_words(words, n, threshold, state);
}
#endif

static void sample_default(intnat *words, intnat n, int64_t threshold, uint64_t state)
{
  sample_words(words, n, threshold, state);
}

/* Variant k of Failure.sample_variants ("x86-64-v4", "x86-64-v3",
   "default"), or NULL when it is not built or the CPU cannot run it. */
static sample_fn *sample_variant(intnat k)
{
  switch (k) {
#ifdef RCM_LEVELS
  case 0:
    return cpu_v4() ? sample_v4 : NULL;
  case 1:
    return __builtin_cpu_supports("x86-64-v3") ? sample_v3 : NULL;
#endif
  case 2:
    return sample_default;
  default:
    return NULL;
  }
}

static inline int64_t dead_threshold(double q)
{
  return (int64_t)ceil(q * 0x1p53);
}

/* Through the first variant the CPU runs (the default always does). */
CAMLprim value rcm_sample_alive(value vwords, intnat n, double q, int64_t state)
{
  sample_fn *fill = NULL;
  for (intnat k = 0; fill == NULL; k++)
    fill = sample_variant(k);
  fill((intnat *)Caml_ba_data_val(vwords), n, dead_threshold(q), (uint64_t)state);
  return Val_unit;
}

CAMLprim value rcm_sample_alive_bc(value vwords, value vn, value vq, value vstate)
{
  return rcm_sample_alive(vwords, Long_val(vn), Double_val(vq), Int64_val(vstate));
}

/* One variant called directly; false, with the words untouched, when
   it cannot run here. */
CAMLprim value rcm_sample_alive_variant(value vk, value vwords, value vn, value vq,
                                        value vstate)
{
  sample_fn *fill = sample_variant(Long_val(vk));
  if (fill == NULL)
    return Val_false;
  fill((intnat *)Caml_ba_data_val(vwords), Long_val(vn), dead_threshold(Double_val(vq)),
       (uint64_t)Int64_val(vstate));
  return Val_true;
}

/* 32-bit popcount without the POPCNT instruction, which the default
   target lacks. */
static inline uint32_t popcount32(uint32_t x)
{
  x = x - ((x >> 1) & 0x55555555u);
  x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
  return (((x + (x >> 4)) & 0x0F0F0F0Fu) * 0x01010101u) >> 24;
}

/* Rank.create, first pass: incl[w] = survivors among the first n bits
   up to word w's end. Returns the count. */
CAMLprim value rcm_rank_prefix(value vwords, value vn, value vincl)
{
  const intnat *words = (const intnat *)Caml_ba_data_val(vwords);
  uint32_t *incl = (uint32_t *)Caml_ba_data_val(vincl);
  intnat n = Long_val(vn), nw = (n + 31) >> 5;
  uint32_t total = 0;
  for (intnat w = 0; w < nw; w++) {
    uint32_t word = (uint32_t)words[w];
    if (w == nw - 1 && (n & 31))
      word &= ((uint32_t)1 << (n & 31)) - 1;
    total += popcount32(word);
    incl[w] = total;
  }
  return Val_long(total);
}

/* Rank.create, second pass: dir[j] = the word of survivor j << shift,
   for j < ceil(count / 2^shift), where dir starts after incl's nw
   entries. */
CAMLprim value rcm_rank_directory(value vindex, value vnw, value vshift)
{
  uint32_t *incl = (uint32_t *)Caml_ba_data_val(vindex);
  intnat nw = Long_val(vnw), shift = Long_val(vshift), w = 0;
  uint32_t *dir = incl + nw, count = nw > 0 ? incl[nw - 1] : 0;
  intnat entries = ((intnat)count + ((intnat)1 << shift) - 1) >> shift;
  for (intnat j = 0; j < entries; j++) {
    uint32_t i = (uint32_t)(j << shift);
    while (incl[w] <= i)
      w++;
    dir[j] = (uint32_t)w;
  }
  return Val_unit;
}

CAMLprim value rcm_rank_select(value vrank, value vi)
{
  struct rank r = rank_of(vrank);
  return Val_long(rank_select(&r, Long_val(vi)));
}

/* Whether the x86-64-v4 variants run here: Rank.select_variants and
   Route_batch.variants list them only then. */
CAMLprim value rcm_x86_64_v4(value unit)
{
  (void)unit;
#ifdef RCM_LEVELS
  return Val_bool(cpu_v4());
#else
  return Val_false;
#endif
}

/* Rank.select_variants: variant 0 selects in the word by PDEP, which
   is listed, and so called, only where rcm_x86_64_v4 holds; 1 by the
   search. */
CAMLprim value rcm_rank_select_variant(value vk, value vrank, value vi)
{
  struct rank r = rank_of(vrank);
#ifdef RCM_LEVELS
  if (Long_val(vk) == 0)
    return Val_long(rank_select_pdep(&r, Long_val(vi)));
#endif
  (void)vk;
  return Val_long(rank_select(&r, Long_val(vi)));
}

/* Bitset.members: set bits in ascending id order. Reads only the low
   32 bits of each word, as Bitset.count does, and stops at the
   output's length, so stray high bits written through Bitset.words
   cannot push it past the array. The output is an int array: old and
   new field values are immediates, so the stores need no write
   barrier. */
CAMLprim value rcm_bitset_members(value vwords, value vout)
{
  const intnat *words = (const intnat *)Caml_ba_data_val(vwords);
  intnat nwords = Caml_ba_array_val(vwords)->dim[0];
  value *out = (value *)Op_val(vout);
  mlsize_t cap = Wosize_val(vout), k = 0;
  for (intnat w = 0; w < nwords && k < cap; w++) {
    uint32_t word = (uint32_t)words[w];
    while (word != 0 && k < cap) {
      out[k++] = Val_long((w << 5) + __builtin_ctz(word));
      word &= word - 1;
    }
  }
  return Val_unit;
}

/* Table.build's Symphony shortcut column: entry v*k_s + j is node v's
   shortcut j, (v + dist) mod n, where dist is the value
   Splitmix.harmonic_int ~n:(n - 1) takes at draw v*k_s + j of the
   build generator at [state] — Splitmix.float at that draw (the
   draw's top 53 bits times 2^-53), then harmonic_int's own formula
   with its ln n computed once by the caller: int_of_float (exp (u *. ln_n)), clamped to [1, n - 1]. The
   product and the libm exp are those OCaml's float ops compile to, and
   the C truncating cast is int_of_float, so every entry equals the
   OCaml draw's bit for bit. The exp keeps the loop scalar; at 2^20
   nodes it fills in about 10 ms, against 30-35 ms for evaluating the
   entry closure per node. The caller advances its generator by the
   column length. */
CAMLprim value rcm_fill_shortcuts(value vcolumn, intnat k_s, double ln_n, int64_t state)
{
  int32_t *column = (int32_t *)Caml_ba_data_val(vcolumn);
  intnat n = Caml_ba_array_val(vcolumn)->dim[0] / k_s, mask = n - 1, e = 0;
  for (intnat v = 0; v < n; v++)
    for (intnat j = 0; j < k_s; j++, e++) {
      uint64_t z = splitmix_mix((uint64_t)state + ((uint64_t)e + 1) * SPLITMIX_GAMMA);
      double u = (double)(int64_t)(z >> 11) * 0x1p-53;
      intnat dist = (intnat)exp(u * ln_n);
      dist = dist < 1 ? 1 : dist > mask ? mask : dist;
      column[e] = (int32_t)((v + dist) & mask);
    }
  return Val_unit;
}

CAMLprim value rcm_fill_shortcuts_bc(value vcolumn, value vk_s, value vln_n, value vstate)
{
  return rcm_fill_shortcuts(vcolumn, Long_val(vk_s), Double_val(vln_n), Int64_val(vstate));
}
