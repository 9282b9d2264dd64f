/* The per-node passes of a static trial, in C: the failure-mask sample
   (Failure.sample), the survivor list (Bitset.members) and the flat
   fills of the builtin tree/hypercube, xor and ring tables
   (Flat.init_pattern, called by Table.build).

   Why C: at 2^20 nodes each pass is a million-iteration loop whose
   body is a handful of ALU ops. In OCaml every per-node
   Splitmix.bernoulli / Splitmix.int is an out-of-line call (dune's
   default profile compiles library modules -opaque, so nothing
   inlines across them), and Flat.init pays a closure call
   and a range check per table entry. Even with the SplitMix step
   inlined and its state unboxed, an OCaml mask loop took over twice
   as long as the one below at 2^20 nodes (9.0 vs 3.7 ms on one
   2.0 GHz Xeon vCPU).

   Bit-identity contract (pinned by test/test_batch.ml against a
   bernoulli loop and by test/test_flat.ml against the Classic tables
   of Table's entry functions): every loop replays its OCaml
   counterpart draw for draw and entry for entry. A loop that draws
   starts from the caller's Prng.Splitmix state and does not hand it
   back; the caller advances its generator by the exact draw count
   (Prng.Splitmix.advance), which the loop fixes up front — one draw
   per node for a mask, one per entry for xor. A pass whose draw count
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

/* Uniform blocks of degree bits over nodes = 2^bits, row v at
   v * bits. Entry (v, i) mirrors Table's entry functions:
     flip:  v xor 2^(bits-1-i)                       (tree_entry)
     ring:  (v + 2^i) mod 2^bits                     (ring_entry)
     xor:   the flip, with its bits-1-i low bits taken from one draw
            (xor_entry). Splitmix.int at the power-of-two bound 2^bits
            never rejects, so the draw is (z >> 2) mod 2^bits and the
            suffix is its low bits-1-i bits. */
static void fill_offsets(intnat *offsets, intnat nodes, intnat bits)
{
  for (intnat v = 0; v <= nodes; v++)
    offsets[v] = v * bits;
}

CAMLprim value rcm_fill_flip(value voffsets, value vtargets, value vbits)
{
  intnat bits = Long_val(vbits), nodes = (intnat)1 << bits;
  int32_t *row = (int32_t *)Caml_ba_data_val(vtargets);
  fill_offsets((intnat *)Caml_ba_data_val(voffsets), nodes, bits);
  for (intnat v = 0; v < nodes; v++, row += bits)
    for (intnat i = 0; i < bits; i++)
      row[i] = (int32_t)(v ^ ((intnat)1 << (bits - 1 - i)));
  return Val_unit;
}

CAMLprim value rcm_fill_ring(value voffsets, value vtargets, value vbits)
{
  intnat bits = Long_val(vbits), nodes = (intnat)1 << bits;
  int32_t *row = (int32_t *)Caml_ba_data_val(vtargets);
  fill_offsets((intnat *)Caml_ba_data_val(voffsets), nodes, bits);
  for (intnat v = 0; v < nodes; v++, row += bits)
    for (intnat i = 0; i < bits; i++)
      row[i] = (int32_t)((v + ((intnat)1 << i)) & (nodes - 1));
  return Val_unit;
}

CAMLprim value rcm_fill_xor(value voffsets, value vtargets, intnat bits, int64_t state)
{
  intnat nodes = (intnat)1 << bits;
  int32_t *row = (int32_t *)Caml_ba_data_val(vtargets);
  uint64_t s = (uint64_t)state;
  fill_offsets((intnat *)Caml_ba_data_val(voffsets), nodes, bits);
  for (intnat v = 0; v < nodes; v++, row += bits)
    for (intnat i = 0; i < bits; i++) {
      intnat bit = (intnat)1 << (bits - 1 - i), low = bit - 1;
      intnat suffix = (intnat)(splitmix_next(&s) >> 2) & low;
      row[i] = (int32_t)(((v & ~low) ^ bit) | suffix);
    }
  return Val_unit;
}

CAMLprim value rcm_fill_xor_bc(value voffsets, value vtargets, value vbits, value vstate)
{
  return rcm_fill_xor(voffsets, vtargets, Long_val(vbits), Int64_val(vstate));
}
