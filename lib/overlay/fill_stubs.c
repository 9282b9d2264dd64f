/* The per-node passes of a static trial, in C: the failure-mask sample
   (Failure.sample) and the survivor list (Bitset.members).

   Why C: at 2^20 nodes each pass is a million-iteration loop whose
   body is a handful of ALU ops. In OCaml every per-node
   Splitmix.bernoulli is an out-of-line call (dune's default profile
   compiles library modules -opaque, so nothing inlines across them).
   Even with the SplitMix step inlined and its state unboxed, an OCaml
   mask loop took over twice as long as the one below at 2^20 nodes
   (9.0 vs 3.7 ms on one 2.0 GHz Xeon vCPU).

   Bit-identity contract (pinned by test/test_batch.ml against a
   bernoulli loop): the mask loop replays Splitmix.bernoulli draw for
   draw. It starts from the caller's Prng.Splitmix state and does not
   hand it back; the caller advances its generator by the draw count,
   one per node (Prng.Splitmix.advance). A pass whose draw count
   depends on the values drawn (rejection sampling) cannot be split
   this way: it must take the generator itself and write the final
   state back, as the hypercube lane in route_batch_stubs.c does.

   Memory discipline: no allocation, no callbacks, no exceptions;
   argument checks are the OCaml callers'. */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

/* One step of Prng.Splitmix.next_int64. */
static inline uint64_t splitmix_next(uint64_t *state)
{
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/* Failure.sample: node v is dead iff its draw, read as Splitmix.float,
   is below q — exactly Splitmix.bernoulli ~p:q, one draw per node, id
   ascending. Every word is written whole, so the bits at and above n
   in the last one stay zero. */
CAMLprim value rcm_sample_alive(value vwords, intnat n, double q, int64_t state)
{
  intnat *words = (intnat *)Caml_ba_data_val(vwords);
  uint64_t s = (uint64_t)state;
  for (intnat base = 0; base < n; base += 32) {
    intnat width = n - base < 32 ? n - base : 32;
    intnat word = 0;
    for (intnat b = 0; b < width; b++) {
      uint64_t z = splitmix_next(&s);
      word |= (intnat)!((double)(z >> 11) * 0x1p-53 < q) << b;
    }
    words[base >> 5] = word;
  }
  return Val_unit;
}

CAMLprim value rcm_sample_alive_bc(value vwords, value vn, value vq, value vstate)
{
  return rcm_sample_alive(vwords, Long_val(vn), Double_val(vq), Int64_val(vstate));
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
