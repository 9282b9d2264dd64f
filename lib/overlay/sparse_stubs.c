/* Sparse.build's passes in C: the dense-regime id draw and one fill
   per contact rule (Chord fingers, Kademlia/Plaxton buckets, Symphony
   links), each over the sorted ids in one pass.

   Why C: a storage trial builds a fresh sparse overlay, and in OCaml
   each entry was a closure call through Flat.init, with an out-of-line
   Splitmix call per drawn entry (library modules compile -opaque, so
   nothing inlines across them).

   Bit-identity contract (pinned by test/test_sparse.ml against its
   array-of-arrays model): every pass consumes the build generator draw
   for draw as the OCaml builders did, v ascending then entry
   ascending, and the passes that draw write the generator's final
   state back, since a bounded draw's count depends on the values
   drawn.

   ids is the overlay's sorted OCaml int array; targets the contact
   block, degree entries per node, -1 for an empty bucket. No
   allocation, no callbacks, no exceptions; argument checks are the
   OCaml caller's, and the sanitize profile checks every index into
   ids (bounds.h). */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <stdint.h>

#include "bounds.h"
#include "splitmix.h"

#define ID(v) Long_val(AT(vids, (v)))

/* Sparse.sample_ids's dense regime (2 count >= 2^bits): shuffle the
   whole space with Splitmix.shuffle_in_place (i from the top down,
   swapped with Splitmix.int (i + 1)), take the first count entries,
   and write them to ids ascending. [scratch] holds 2^bits uint32.

   Two shortcuts, both exact. A swap at i < count exchanges two of the
   first count entries, which leaves the chosen set alone, so those
   steps only draw. And the chosen set is marked in bit 31 of the
   scratch entry each chosen id indexes (ids stay below 2^30), so one
   ascending scan of the scratch lists it sorted, with no byte map. */
CAMLprim value rcm_sparse_dense_ids(value vrng, value vscratch, value vids)
{
  uint32_t *all = (uint32_t *)Bytes_val(vscratch);
  intnat size = (intnat)(caml_string_length(vscratch) / 4), count = Wosize_val(vids);
  uint64_t s = splitmix_load(vrng);
  for (intnat i = 0; i < size; i++)
    all[i] = (uint32_t)i;
  for (intnat i = size - 1; i >= 1; i--) {
    intnat j = splitmix_int(&s, i + 1);
    if (i >= count) {
      uint32_t tmp = all[i];
      all[i] = all[j];
      all[j] = tmp;
    }
  }
  splitmix_store(vrng, s);
  for (intnat k = 0; k < count; k++)
    all[all[k] & 0x7FFFFFFFu] |= 0x80000000u;
  intnat filled = 0;
  for (intnat id = 0; id < size; id++)
    if (all[id] & 0x80000000u)
      AT(vids, filled++) = Val_long(id);
  return Val_unit;
}

/* Chord over a sparse ring: finger i of node v is the first occupied
   id clockwise from id_v + 2^i. That unwrapped target rises with v, so
   each finger keeps one forward pointer into the doubled id sequence
   ids[0..n-1], ids[0..n-1] + 2^bits: its first position whose value
   reaches the target. Position p names node p mod n, which covers the
   wrap past the top of the ring (p >= n). The pointer never passes
   2n - 1, whose value ids[n-1] + 2^bits is above every target
   id_v + 2^i, since 2^i < 2^bits. */
CAMLprim value rcm_sparse_fill_ring(value vids, value vbits, value vtargets)
{
  int32_t *targets = (int32_t *)Caml_ba_data_val(vtargets);
  intnat n = Wosize_val(vids), bits = Long_val(vbits), size = (intnat)1 << bits;
  intnat pointers[64] = {0};
  for (intnat v = 0; v < n; v++) {
    intnat id = ID(v);
    for (intnat i = 0; i < bits; i++) {
      intnat target = id + ((intnat)1 << i), p = pointers[i];
      while ((p < n ? ID(p) : ID(p - n) + size) < target)
        p++;
      pointers[i] = p;
      *targets++ = (int32_t)(p >= n ? p - n : p);
    }
  }
  return Val_unit;
}

/* First index in [lo, hi) of the sorted ids whose id is >= target; hi
   when none. */
static inline intnat lower_bound(value vids, intnat lo, intnat hi, intnat target)
{
  while (lo < hi) {
    intnat mid = (lo + hi) >> 1;
    if (ID(mid) >= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/* Kademlia/Plaxton buckets over a sparse space: the level-l contact
   (entry l - 1) of v is Splitmix.int-uniform over the occupied ids
   that share v's first l - 1 bits and differ on bit l, or -1 when
   there are none. One descent of the id trie per node: own[l] is the
   index range of the ids sharing v's first l bits, and the level-l
   bucket is the other half of own[l - 1]. Consecutive ids share their
   common prefix, so node v recomputes only the levels below the prefix
   it shares with v - 1. */
CAMLprim value rcm_sparse_fill_prefix(value vids, value vbits, value vrng, value vtargets)
{
  int32_t *targets = (int32_t *)Caml_ba_data_val(vtargets);
  intnat n = Wosize_val(vids), bits = Long_val(vbits);
  intnat own_lo[64], own_hi[64], bucket_lo[64], bucket_hi[64];
  uint64_t s = splitmix_load(vrng);
  own_lo[0] = 0;
  own_hi[0] = n;
  for (intnat v = 0; v < n; v++) {
    intnat id = ID(v);
    intnat shared = v == 0 ? 0 : bits - 64 + __builtin_clzll((unsigned long long)(ID(v - 1) ^ id));
    for (intnat level = shared + 1; level <= bits; level++) {
      intnat lo = own_lo[level - 1], hi = own_hi[level - 1];
      intnat bit = (intnat)1 << (bits - level);
      /* The first id with v's first level - 1 bits and bit [level] set. */
      intnat split = lower_bound(vids, lo, hi, (id & ~(2 * bit - 1)) | bit);
      if ((id & bit) == 0) {
        own_lo[level] = lo;
        own_hi[level] = split;
        bucket_lo[level] = split;
        bucket_hi[level] = hi;
      } else {
        own_lo[level] = split;
        own_hi[level] = hi;
        bucket_lo[level] = lo;
        bucket_hi[level] = split;
      }
    }
    for (intnat level = 1; level <= bits; level++) {
      intnat lo = bucket_lo[level], hi = bucket_hi[level];
      *targets++ = (int32_t)(hi <= lo ? -1 : lo + splitmix_int(&s, hi - lo));
    }
  }
  splitmix_store(vrng, s);
  return Val_unit;
}

/* Symphony over a sparse ring of n nodes: near neighbours are the next
   k_n nodes; shortcut j is v plus Splitmix.harmonic_int ~n:(n - 1),
   mod n. harmonic_int is Splitmix.float, then
   int_of_float (exp (u *. ln_n)) clamped to [1, n - 1], with
   ln_n = log n passed in; the product and the libm exp are those
   OCaml's float ops compile to, and the truncating cast is
   int_of_float, so every entry is the OCaml draw's. */
CAMLprim value rcm_sparse_fill_symphony(value vk_n, value vk_s, value vln_n, value vrng,
                                        value vtargets)
{
  int32_t *targets = (int32_t *)Caml_ba_data_val(vtargets);
  intnat k_n = Long_val(vk_n), k_s = Long_val(vk_s), degree = k_n + k_s;
  intnat n = Caml_ba_array_val(vtargets)->dim[0] / degree, top = n - 1;
  double ln_n = Double_val(vln_n);
  uint64_t s = splitmix_load(vrng);
  for (intnat v = 0; v < n; v++) {
    for (intnat i = 0; i < k_n; i++)
      *targets++ = (int32_t)((v + i + 1) % n);
    for (intnat j = 0; j < k_s; j++) {
      intnat dist = (intnat)exp(splitmix_float(&s) * ln_n);
      dist = dist < 1 ? 1 : dist > top ? top : dist;
      *targets++ = (int32_t)(v + dist >= n ? v + dist - n : v + dist);
    }
  }
  splitmix_store(vrng, s);
  return Val_unit;
}
