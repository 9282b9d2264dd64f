/* Kbucket's hooks in C: observe, the ping-before-evict pass
   (Kbucket.maintain) and the bucket draw that Kbucket.build and rejoin
   share.

   Why C: under churn these run once per event. An xor rejoin redraws
   every bucket of the node and then announces it to each live contact,
   which is a few dozen observe calls; a maintenance tick pings the head
   of every bucket. In OCaml each step was an out-of-line call through a
   liveness closure, and the xor points took two thirds of the churn
   sweep. Here liveness is one load from the alive mask's words.

   Bit-identity contract (pinned by test/test_replication.ml against a
   list model, and by the churn goldens): a bucket draw consumes the
   generator as Prng.Splitmix.int at bound 2^(bits - level), a power of
   two, which never rejects: one step per attempt. A suffix already in
   the bucket is drawn again without counting an attempt; with a mask,
   a dead candidate is drawn again up to 8 times, then accepted. A
   bucket with no more candidates than k is enumerated in suffix order,
   with no draw. The stubs that draw write the generator's final state
   back.

   Layout: bucket b = v * bits + level - 1 owns contact slots
   [b * stride, b * stride + len[b]) and cache slots
   [b * cache_stride, b * cache_stride + cache_len[b]), least recently
   seen first. Every array is an OCaml int array: the stubs store
   immediates (Val_long), which need no write barrier.

   No allocation, no callbacks, no exceptions; the OCaml callers check
   node, level and mask ranges. Every index into those arrays goes
   through bounds.h, which checks it in the sanitize profile. */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

#include "bounds.h"
#include "splitmix.h"

/* The fields of a Kbucket.t, by position. */
enum {
  T_BITS, T_NODES, T_K, T_STRIDE, T_CACHE_STRIDE, T_CONTACTS, T_LEN, T_CACHE, T_CACHE_LEN
};

struct kb {
  intnat bits, k, stride, cache_stride;
  value *contacts, *len, *cache, *cache_len;
};

static inline struct kb kb_of(value t)
{
  struct kb kb;
  kb.bits = Long_val(Field(t, T_BITS));
  kb.k = Long_val(Field(t, T_K));
  kb.stride = Long_val(Field(t, T_STRIDE));
  kb.cache_stride = Long_val(Field(t, T_CACHE_STRIDE));
  kb.contacts = Op_val(Field(t, T_CONTACTS));
  kb.len = Op_val(Field(t, T_LEN));
  kb.cache = Op_val(Field(t, T_CACHE));
  kb.cache_len = Op_val(Field(t, T_CACHE_LEN));
  return kb;
}

/* Bit [id] of a Bitset payload: 32 ids to an intnat word. */
static inline int is_alive(const intnat *words, intnat id)
{
  return (words[id >> 5] >> (id & 31)) & 1;
}

static inline const intnat *words_of(value words)
{
  return (const intnat *)Caml_ba_data_val(words);
}

/* Position of [id] among the [n] entries at [a], or -1. Tagged ints
   compare equal exactly when the ints do. */
static inline intnat index_of(const value *a, intnat n, value id)
{
  for (intnat i = 0; i < n; i++)
    if (a[i] == id)
      return i;
  return -1;
}

/* Moves entry [i] of the [n] entries at [a] to the tail, keeping the
   others in order. */
static inline void move_to_tail(value *a, intnat n, intnat i)
{
  value x = a[i];
  for (intnat j = i; j < n - 1; j++)
    a[j] = a[j + 1];
  a[n - 1] = x;
}

/* Bucket b's slots of [a], which holds [stride] > 0 slots per bucket,
   and its slot count from [lens], at most [stride]. Macros, not
   functions, so that without RCM_BOUNDS the code is the bare
   indexing's, instruction for instruction. */
#define SLOTS(a, b, stride) ((a) + BOUND((b), Wosize_val((value)(a)) / (stride)) * (stride))
#define USED(lens, b, stride) BOUND(Long_val(AT_PTR((lens), (b))), (stride) + 1)

static inline intnat capacity(const struct kb *kb, intnat level)
{
  intnat candidates = (intnat)1 << (kb->bits - level);
  return kb->k < candidates ? kb->k : candidates;
}

/* Kbucket.observe: v heard from id. */
static void observe(const struct kb *kb, intnat v, intnat id)
{
  if (v == id)
    return;
  intnat level = kb->bits - (63 - __builtin_clzll((unsigned long long)(v ^ id)));
  intnat b = v * kb->bits + level - 1;
  value *c = SLOTS(kb->contacts, b, kb->stride), vid = Val_long(id);
  intnat n = USED(kb->len, b, kb->stride), i = index_of(c, n, vid);
  if (i >= 0)
    move_to_tail(c, n, i);
  else if (n < capacity(kb, level)) {
    c[BOUND(n, kb->stride)] = vid;
    AT_PTR(kb->len, b) = Val_long(n + 1);
  } else if (kb->cache_stride > 0) {
    value *cc = SLOTS(kb->cache, b, kb->cache_stride);
    intnat m = USED(kb->cache_len, b, kb->cache_stride), j = index_of(cc, m, vid);
    if (j >= 0)
      move_to_tail(cc, m, j);
    else if (m < kb->cache_stride) {
      cc[m] = vid;
      AT_PTR(kb->cache_len, b) = Val_long(m + 1);
    } else {
      /* Full cache: the oldest entry drops out at the head. */
      for (intnat j = 0; j < m - 1; j++)
        cc[j] = cc[j + 1];
      cc[m - 1] = vid;
    }
  }
}

/* Redraws v's level bucket, preferring live contacts when [words] is
   not NULL. The caller clears the cache. */
static void draw_bucket(const struct kb *kb, uint64_t *s, intnat v, intnat level,
                        const intnat *words)
{
  intnat b = v * kb->bits + level - 1;
  value *c = SLOTS(kb->contacts, b, kb->stride);
  intnat candidates = (intnat)1 << (kb->bits - level);
  intnat prefix = (v ^ candidates) & ~(candidates - 1);
  if (candidates <= kb->k) {
    for (intnat suffix = 0; suffix < candidates; suffix++)
      c[BOUND(suffix, kb->stride)] = Val_long(prefix | suffix);
    AT_PTR(kb->len, b) = Val_long(candidates);
    return;
  }
  for (intnat filled = 0; filled < kb->k; filled++) {
    intnat attempts = 0, id;
    for (;;) {
      id = prefix | splitmix_int_pow2(s, candidates - 1);
      if (index_of(c, filled, Val_long(id)) >= 0)
        continue;
      if (words != NULL && attempts < 8 && !is_alive(words, id)) {
        attempts++;
        continue;
      }
      break;
    }
    c[BOUND(filled, kb->stride)] = Val_long(id);
  }
  AT_PTR(kb->len, b) = Val_long(kb->k);
}

/* Kbucket.build: every bucket, node-major, no liveness preference. */
CAMLprim value rcm_kbucket_build(value t, value rng)
{
  struct kb kb = kb_of(t);
  intnat nodes = Long_val(Field(t, T_NODES));
  uint64_t s = splitmix_load(rng);
  for (intnat v = 0; v < nodes; v++)
    for (intnat level = 1; level <= kb.bits; level++)
      draw_bucket(&kb, &s, v, level, NULL);
  splitmix_store(rng, s);
  return Val_unit;
}

/* Kbucket.rejoin: redraw every bucket of v preferring live contacts,
   clearing the caches, then announce v to each live contact in level
   order. An announce writes only the contact's buckets, never v's. */
CAMLprim value rcm_kbucket_rejoin(value t, value rng, value vv, value words)
{
  struct kb kb = kb_of(t);
  const intnat *w = words_of(words);
  intnat v = Long_val(vv), first = v * kb.bits;
  uint64_t s = splitmix_load(rng);
  for (intnat level = 1; level <= kb.bits; level++) {
    draw_bucket(&kb, &s, v, level, w);
    AT_PTR(kb.cache_len, first + level - 1) = Val_long(0);
  }
  splitmix_store(rng, s);
  for (intnat b = first; b < first + kb.bits; b++) {
    const value *c = SLOTS(kb.contacts, b, kb.stride);
    intnat n = USED(kb.len, b, kb.stride);
    for (intnat i = 0; i < n; i++) {
      intnat id = Long_val(c[i]);
      if (is_alive(w, id))
        observe(&kb, id, v);
    }
  }
  return Val_unit;
}

CAMLprim value rcm_kbucket_observe(value t, value v, value id)
{
  struct kb kb = kb_of(t);
  observe(&kb, Long_val(v), Long_val(id));
  return Val_unit;
}

/* Kbucket.maintain: ping-before-evict on the head of each non-empty
   bucket of v. A live head rotates to the tail; a dead one is dropped
   and the cache's newest entry, if any, takes the freed tail slot. */
CAMLprim value rcm_kbucket_maintain(value t, value vv, value words)
{
  struct kb kb = kb_of(t);
  const intnat *w = words_of(words);
  intnat v = Long_val(vv);
  for (intnat b = v * kb.bits; b < (v + 1) * kb.bits; b++) {
    intnat n = USED(kb.len, b, kb.stride);
    if (n == 0)
      continue;
    value *c = SLOTS(kb.contacts, b, kb.stride), head = c[0];
    for (intnat j = 0; j < n - 1; j++)
      c[j] = c[j + 1];
    if (is_alive(w, Long_val(head)))
      c[n - 1] = head;
    else {
      intnat m = USED(kb.cache_len, b, kb.cache_stride);
      if (m == 0)
        AT_PTR(kb.len, b) = Val_long(n - 1);
      else {
        c[n - 1] = AT_PTR(kb.cache, b * kb.cache_stride + m - 1);
        AT_PTR(kb.cache_len, b) = Val_long(m - 1);
      }
    }
  }
  return Val_unit;
}
