/* Batched routing kernels, one call per pair block: tree, xor, ring
   and symphony route many pairs at once; hypercube walks its pairs one
   after another, drawing from the caller's generator.

   Variants: on CPUs that run x86-64-v4, the tree, xor and ring lanes
   route their computed tables, and the Symphony driver its shortcut
   column, through AVX-512 lanes, and the pair draw selects survivors
   with PDEP (the AVX-512 section below, and rank.h); every other
   table, lane and CPU runs the portable code, which is also the
   reference the tests hold the AVX-512 code to.
   Each call takes a variant argument: 0 picks per call, by the CPU
   check of levels.h, as the mask loop of fill_stubs.c does; 1 forces
   the portable code (Route_batch.variants, a test hook).

   Entries: a lane reads entry i of node v through entry() below,
   which either computes it from the table's rule (the builtin tree,
   hypercube, ring and xor tables: Overlay.Table.rule) or loads it
   from a CSR block (the variant builders, Table.flatten).
   That one switch is the only difference between the two; there is
   one set of lanes. Table.build's Symphony layout, computed
   successors beside a column of drawn shortcuts, has a driver of its
   own, rcm_route_symphony, for the measured reason given there.

   Why C, and why whole blocks: at 2^20 nodes a CSR targets block is
   tens of MiB (a Symphony shortcut column 4 MiB), so each hop is a
   dependent random load the hardware prefetchers cannot follow.
   Hiding that latency needs (a) many independent routes in flight
   with a software PREFETCH issued one round ahead of each lane's next
   row — prefetches retire immediately,
   while a discarded demand load would stall the reorder buffer on
   every miss and serialise the lanes again — and (b) so few
   instructions per hop that the out-of-order window always holds the
   next lanes' misses. A computed entry is a few ALU ops in registers
   and needs no prefetch; the lanes still overlap the liveness probes.
   (b) is what OCaml's codegen cannot deliver: the hop steps below
   lean on count-leading-zeros and conditional moves, and a per-hop
   foreign call would cost more than the hop. Pair draws are here too
   (draw_pair: two bounded draws and two selects over the mask's rank
   index, a few ALU ops and L2 loads each). The geometry dispatch,
   scratch ownership and metrics stay in OCaml — see route_batch.ml.

   Bit-identity contract (pinned by test/test_batch.ml and the CLI
   byte-identity checks): each driver visits candidates in exactly the
   scalar router's order — or in an order-insensitive form proved
   equivalent (ring, below) — so outcomes, hop counts and stuck nodes
   equal the scalar path's for every pair. The lane kernels consume no
   randomness. The hypercube kernel consumes exactly the scalar draws,
   in the scalar order, and writes the final generator state back. A
   drawn pair is the pair the scalar trial loop draws: the same
   bounded draws, and select returns exactly the survivor list's
   entry.

   Memory discipline: no allocation, no callbacks, no GC interaction —
   the OCaml int arrays (srcs/dsts/pool), the generator's bytes and the
   Bigarray payloads cannot move during the call, so raw pointers are
   safe. The xor rule's seed is read out of its boxed int64 once. The
   sanitize profile checks every index into srcs, dsts and pool
   (bounds.h), and every gather's indexes (CHECK_GATHER below).
   Results are written straight into the caller's scratch Bigarrays:
   hops_out[k] = hop count, stuck_out[k] = -1 when delivered or the
   stuck node id.

   Load telemetry (Obs.Loadmap): each driver also takes two per-node
   counter slices, trav and term, owned by the calling domain's loadmap
   shard. A zero-length Bigarray means "telemetry off" and decodes to
   NULL below, so the disabled path costs one well-predicted branch per
   hop. Counting points mirror the scalar Router hook exactly:
   trav[next] is bumped at every accepted hop (each node the message
   reaches after the source, including the final one) and term[v] once
   per pair where the walk ends — the destination when delivered, the
   stuck node when dropped. */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#include "bounds.h"
#include "levels.h"
#include "rank.h"
#include "splitmix.h"

#ifdef RCM_LEVELS
#include <immintrin.h>
#endif

/* Independent routes in flight per block. Enough that a full round of
   other lanes (each a handful of nanoseconds once rows are cached)
   covers one memory latency; small enough that the prefetched rows
   (<= 3 lines each) sit comfortably in L1. The ring hop is an order of
   magnitude fatter than the tree/xor single-candidate steps (it reads
   the whole row), so its optimum is fewer lanes — fat hops fill the
   out-of-order window quickly, and extra lanes only add L1 pressure —
   where the thin hops want more lanes in flight to cover the same
   latency. Both measured on 2^20-node block tables. */
#define LANES 64
#define RING_LANES 24

static inline int alive_bit(const intnat *words, intnat v)
{
  return (int)((words[v >> 5] >> (v & 31)) & 1);
}

/* Loadmap counter slice, or NULL when the zero-length "off" Bigarray
   was passed. */
static inline intnat *loadmap_slice(value v)
{
  return Caml_ba_array_val(v)->dim[0] == 0 ? NULL
                                           : (intnat *)Caml_ba_data_val(v);
}

/* The table a lane routes on. [rule] is one of the codes below, as
   route_batch.ml passes them: BLOCK loads entries from the CSR arrays
   (targets/offsets/deg); the others compute them, and the arrays are
   empty. Each rule is a builtin Table entry function over 2^bits
   nodes of degree bits:
     FLIP         v xor 2^(bits-1-i)                        (tree_entry)
     FINGER       (v + 2^i) mod 2^bits                      (ring_entry)
     FLIP_SUFFIX  the flip, with its bits-1-i low bits from SplitMix
                  draw v*bits + i of the generator at [seed]
                  (xor_entry). Splitmix.int at the power-of-two
                  bound 2^bits never rejects, so the suffix is the
                  low bits of the draw's top 62 bits. The draw index
                  runs to 2^30 * 30, so it is computed in 64 bits. */
enum { BLOCK = 0, FLIP = 1, FINGER = 2, FLIP_SUFFIX = 3 };

struct table {
  const int32_t *targets;
  const intnat *offsets;
  intnat deg; /* a block's uniform degree, -1 when ragged */
  intnat rule;
  intnat bits;
  uint64_t seed;
};

/* Row base: uniform blocks (deg >= 0, every builder-produced block)
   use a multiply so the prefetch and the hop skip the offsets
   indirection; ragged blocks (bidirectional Symphony via of_rows) fall
   back to the offsets array. */
static inline intnat row_base(const struct table *t, intnat v)
{
  return t->deg >= 0 ? v * t->deg : t->offsets[v];
}

static inline intnat row_limit(const struct table *t, intnat v, intnat base)
{
  return t->deg >= 0 ? base + t->deg : t->offsets[v + 1];
}

/* Entry i of node v: computed from the rule, or loaded from the
   block. */
static inline intnat entry(const struct table *t, intnat v, intnat i)
{
  switch (t->rule) {
  case FLIP:
    return v ^ ((intnat)1 << (t->bits - 1 - i));
  case FINGER:
    return (v + ((intnat)1 << i)) & (((intnat)1 << t->bits) - 1);
  case FLIP_SUFFIX: {
    intnat bit = (intnat)1 << (t->bits - 1 - i), low = bit - 1;
    uint64_t draw = (uint64_t)v * (uint64_t)t->bits + (uint64_t)i;
    uint64_t z = splitmix_mix(t->seed + (draw + 1) * SPLITMIX_GAMMA);
    return ((v & ~low) ^ bit) | ((intnat)(z >> 2) & low);
  }
  default:
    return t->targets[row_base(t, v) + i];
  }
}

/* Number of entries of node v. */
static inline intnat degree(const struct table *t, intnat v)
{
  if (t->rule != BLOCK)
    return t->bits;
  intnat rs = row_base(t, v);
  return row_limit(t, v, rs) - rs;
}

/* Fetch of v's row of a block: first, middle and last entry cover the
   <= 3 cache lines a misaligned row of degree <= 32 can span. A rule's
   entries are computed in registers, so there is nothing to fetch. */
static inline void prefetch_entries(const struct table *t, intnat v)
{
  if (t->rule != BLOCK)
    return;
  intnat rs = row_base(t, v), re = row_limit(t, v, rs) - 1;
  __builtin_prefetch(t->targets + rs);
  __builtin_prefetch(t->targets + ((rs + re) >> 1));
  __builtin_prefetch(t->targets + re);
}

/* Everything a lane driver reads besides its lane state: the table,
   the alive words, the pairs (OCaml int arrays) and their count, the
   result buffers and the loadmap slices; in the sanitize profile also
   the lengths of the alive words and of the targets, which bound the
   AVX-512 lanes' gathers. */
struct batch {
  struct table t;
  const intnat *words;
  value srcs, dsts;
  intnat n;
  intnat *hops_out, *stuck_out, *trav, *term;
#ifdef RCM_BOUNDS
  intnat nwords, ntargets;
#endif
};

static inline struct batch batch_of(intnat rule, uint64_t seed, value vtargets,
                                    value vwords, value voffsets, value vsrcs,
                                    value vdsts, value vn, value vhops_out,
                                    value vstuck_out, value vbits, value vdeg,
                                    value vtrav, value vterm)
{
  struct batch b;
  b.t.targets = (const int32_t *)Caml_ba_data_val(vtargets);
  b.t.offsets = (const intnat *)Caml_ba_data_val(voffsets);
  b.t.deg = Long_val(vdeg);
  b.t.rule = rule;
  b.t.bits = Long_val(vbits);
  b.t.seed = seed;
  b.words = (const intnat *)Caml_ba_data_val(vwords);
  b.srcs = vsrcs;
  b.dsts = vdsts;
  b.n = Long_val(vn);
  b.hops_out = (intnat *)Caml_ba_data_val(vhops_out);
  b.stuck_out = (intnat *)Caml_ba_data_val(vstuck_out);
  b.trav = loadmap_slice(vtrav);
  b.term = loadmap_slice(vterm);
#ifdef RCM_BOUNDS
  b.nwords = Caml_ba_array_val(vwords)->dim[0];
  b.ntargets = Caml_ba_array_val(vtargets)->dim[0];
#endif
  return b;
}

/* A driver body is written once, over entry(), as an always-inline
   function of the batch and a rule, and each driver instantiates it
   twice: with the constant BLOCK, where entry() folds to a plain load
   and the body compiles to a lane over bare arrays, and with the
   table's computed rule. (With the rule tested at run time instead,
   the ring lane ran about a third slower on a 2^20-node Symphony
   block.) */
#define LANE_BODY static inline __attribute__((always_inline))

#define UNPACK(b, rule_)                                        \
  struct table t = (b)->t;                                      \
  const intnat *words = (b)->words;                             \
  value vsrcs = (b)->srcs, vdsts = (b)->dsts;                   \
  intnat *hops_out = (b)->hops_out, *stuck_out = (b)->stuck_out; \
  intnat *trav = (b)->trav, *term = (b)->term;                  \
  intnat n = (b)->n;                                            \
  t.rule = (rule_)

#define TAKE_PAIR(m)                                  \
  do {                                                \
    intnat kk = next_pair++;                          \
    intnat src_ = Long_val(AT(vsrcs, kk));            \
    lk[m] = kk;                                       \
    lcur[m] = src_;                                   \
    ldst[m] = Long_val(AT(vdsts, kk));                \
    lhops[m] = 0;                                     \
    if (src_ != ldst[m])                              \
      prefetch_entries(&t, src_);                     \
  } while (0)

#define LANE_DONE(m)   \
  do {                 \
    lk[m] = -1;        \
    live--;            \
  } while (0)

/* stuck_val is -1 (delivered: the walk ended at the destination) or
   the stuck node id (dropped: it ended there). For the ring driver the
   delivered case fires at remaining distance 0, where lcur == ldst, so
   ldst[m] is the terminating node in every driver. */
#define FINISH(m, stuck_val)                            \
  do {                                                  \
    intnat stuck_ = (stuck_val);                        \
    hops_out[lk[m]] = lhops[m];                         \
    stuck_out[lk[m]] = stuck_;                          \
    if (term)                                           \
      term[stuck_ < 0 ? ldst[m] : stuck_]++;            \
    if (next_pair < n)                                  \
      TAKE_PAIR(m);                                     \
    else                                                \
      LANE_DONE(m);                                     \
  } while (0)

/* The rule lanes that have AVX-512 bodies (defined after the Symphony
   lane, whose driver picks its own AVX-512 body). route_v4 runs the
   batch on them and returns 1 when [variant] is 0, the CPU runs
   x86-64-v4 and [lane] has a body for the table's rule; otherwise it
   returns 0 having done nothing. */
enum { TREE_LANE, XOR_LANE, RING_LANE };

static int route_v4(intnat variant, int lane, const struct batch *b);

/* The lane drivers' OCaml arguments: the variant, the rule code and
   its seed, the block arrays (targets, then the alive words, then
   offsets), the pairs and their count, the result buffers, bits, the
   block's uniform degree and the loadmap slices. */
#define LANE_DRIVER(name, body, lane)                                      \
  CAMLprim value name(value vvariant, value vrule, value vseed,            \
                      value vtargets, value vwords, value voffsets,        \
                      value vsrcs, value vdsts, value vn,                  \
                      value vhops_out, value vstuck_out, value vbits,      \
                      value vdeg, value vtrav, value vterm)                \
  {                                                                        \
    struct batch b = batch_of(Long_val(vrule), (uint64_t)Int64_val(vseed), \
                              vtargets, vwords, voffsets, vsrcs, vdsts,    \
                              vn, vhops_out, vstuck_out, vbits, vdeg,      \
                              vtrav, vterm);                               \
    if (b.t.rule == BLOCK)                                                 \
      body(&b, BLOCK);                                                     \
    else if (!route_v4(Long_val(vvariant), lane, &b))                      \
      body(&b, b.t.rule);                                                  \
    return Val_unit;                                                       \
  }                                                                        \
                                                                           \
  CAMLprim value name##_bc(value *argv, int argn)                          \
  {                                                                        \
    (void)argn;                                                            \
    return name(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],      \
                argv[6], argv[7], argv[8], argv[9], argv[10], argv[11],    \
                argv[12], argv[13], argv[14]);                             \
  }

/* Tree (Plaxton, scalar Tree_router): the only useful neighbour is the
   one correcting the leftmost differing bit (table index
   [bits - 1 - floor_log2 diff]); dead means dropped. */
LANE_BODY void tree_lanes(const struct batch *b, intnat rule)
{
  UNPACK(b, rule);
  intnat lk[LANES], lcur[LANES], ldst[LANES], lhops[LANES];
  intnat lanes = n < LANES ? n : LANES, live = lanes, next_pair = 0;
  for (intnat m = 0; m < lanes; m++)
    TAKE_PAIR(m);
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      intnat cur = lcur[m], dst = ldst[m];
      if (cur == dst) {
        FINISH(m, -1);
        continue;
      }
      intnat p = 63 - __builtin_clzl((unsigned long)(cur ^ dst));
      intnat next = entry(&t, cur, t.bits - 1 - p);
      if (!alive_bit(words, next)) {
        FINISH(m, cur);
        continue;
      }
      lcur[m] = next;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (next != dst)
        prefetch_entries(&t, next);
    }
  }
}

LANE_DRIVER(rcm_route_tree, tree_lanes, TREE_LANE)

/* XOR (Kademlia, scalar Xor_router): candidates are the set bits of
   [cur lxor dst] from the highest down; the first alive contact
   wins. */
LANE_BODY void xor_lanes(const struct batch *b, intnat rule)
{
  UNPACK(b, rule);
  intnat lk[LANES], lcur[LANES], ldst[LANES], lhops[LANES];
  intnat lanes = n < LANES ? n : LANES, live = lanes, next_pair = 0;
  for (intnat m = 0; m < lanes; m++)
    TAKE_PAIR(m);
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      intnat cur = lcur[m], dst = ldst[m];
      if (cur == dst) {
        FINISH(m, -1);
        continue;
      }
      unsigned long rem = (unsigned long)(cur ^ dst);
      intnat next = -1;
      do {
        intnat p = 63 - __builtin_clzl(rem);
        intnat cand = entry(&t, cur, t.bits - 1 - p);
        if (alive_bit(words, cand)) {
          next = cand;
          break;
        }
        rem &= ~(1UL << p);
      } while (rem);
      if (next < 0) {
        FINISH(m, cur);
        continue;
      }
      lcur[m] = next;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (next != dst)
        prefetch_entries(&t, next);
    }
  }
}

LANE_DRIVER(rcm_route_xor, xor_lanes, XOR_LANE)

/* Ring and Symphony (scalar Greedy_ring): greedy clockwise, next hop =
   the unique minimiser of the remaining clockwise distance over the
   alive contacts strictly closer than the current node. Distances of
   distinct candidates are pairwise distinct, so the strict min is
   unique and equals the scalar router's first-scanned minimiser no
   matter in which order candidates are examined.

   With the FINGER rule that minimiser has a closed form. Finger k of
   cur lies at clockwise distance 2^k, so from remaining distance
   rem > 0 it leaves rem - 2^k when 2^k <= rem, and 2^bits + rem - 2^k
   > rem otherwise (2^k < 2^bits): the fingers strictly closer to dst
   are exactly those with 2^k <= rem, i.e. k <= floor(log2 rem), and
   the remaining distance rem - 2^k falls as k rises. So the largest
   alive k <= floor(log2 rem) is the unique greedy minimum, and the
   hop scans k downwards from there, computing each finger and
   probing only until the first alive one.

   On a block, order-independence is what makes the hop cheap. The
   expensive part of a naive scan is not the row (cache-resident after
   the lane prefetch) but the per-candidate liveness probe — a
   dependent random-index load into the bitset for every contact.
   Instead, the fast path computes all candidate keys with pure
   arithmetic, then probes liveness lazily, best candidate first: at
   failure fraction q that is 1/(1-q) probes per hop (~1.2 at q=0.2)
   instead of [degree]. Keys pack [(after << 5) | slot] into 32 bits so
   the min-reduction runs branch-free (conditional moves,
   vectorizable); that needs [bits + 5 <= 32] and at most 32 slots,
   which covers every practical table — wider rows or deeper id spaces
   take the eager path. */

static inline intnat ring_hop_finger(const struct table *t,
                                     const intnat *words, intnat cur,
                                     intnat *rem /* in/out */)
{
  for (intnat k = 63 - __builtin_clzl((unsigned long)*rem); k >= 0; k--) {
    intnat cand = entry(t, cur, k);
    if (alive_bit(words, cand)) {
      *rem -= (intnat)1 << k;
      return cand;
    }
  }
  return -1;
}

static inline intnat ring_hop_fast(const struct table *t, const intnat *words,
                                   intnat cur, intnat deg, intnat dst,
                                   intnat mask, intnat *rem /* in/out */)
{
  uint32_t key[32];
  uint32_t seed = (uint32_t)*rem << 5;
  for (intnat k = 0; k < deg; k++) {
    uint32_t cand = (uint32_t)entry(t, cur, k);
    key[k] = ((((uint32_t)dst - cand) & (uint32_t)mask) << 5) | (uint32_t)k;
  }
  for (;;) {
    uint32_t best = seed;
    for (intnat k = 0; k < deg; k++)
      if (key[k] < best)
        best = key[k];
    if (best >= seed)
      return -1;
    intnat bi = best & 31;
    intnat cand = entry(t, cur, bi);
    if (alive_bit(words, cand)) {
      *rem = (intnat)(best >> 5);
      return cand;
    }
    key[bi] = UINT32_MAX;
  }
}

static inline intnat ring_hop_eager(const struct table *t, const intnat *words,
                                    intnat cur, intnat deg, intnat dst,
                                    intnat mask, intnat *rem /* in/out */)
{
  int64_t seed = (int64_t)*rem << 30;
  int64_t best = seed;
  for (intnat k = 0; k < deg; k++) {
    intnat cand = entry(t, cur, k);
    int64_t key = ((int64_t)((dst - cand) & mask) << 30) | cand;
    if (!alive_bit(words, cand))
      key = INT64_MAX;
    if (key < best)
      best = key;
  }
  if (best >= seed)
    return -1;
  *rem = (intnat)(best >> 30);
  return (intnat)(best & 0x3FFFFFFF);
}

LANE_BODY void ring_lanes(const struct batch *b, intnat rule)
{
  UNPACK(b, rule);
  intnat mask = ((intnat)1 << t.bits) - 1;
  int shallow = t.bits <= 27;
  intnat lk[RING_LANES], lcur[RING_LANES], ldst[RING_LANES], lhops[RING_LANES], lrem[RING_LANES];
  intnat lanes = n < RING_LANES ? n : RING_LANES, live = lanes, next_pair = 0;
  for (intnat m = 0; m < lanes; m++) {
    TAKE_PAIR(m);
    lrem[m] = (ldst[m] - lcur[m]) & mask;
  }
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      if (lrem[m] == 0) {
        FINISH(m, -1);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      intnat cur = lcur[m], dst = ldst[m];
      intnat rem = lrem[m], next;
      if (t.rule == FINGER)
        next = ring_hop_finger(&t, words, cur, &rem);
      else {
        intnat deg = degree(&t, cur);
        next = (shallow && deg <= 32)
                   ? ring_hop_fast(&t, words, cur, deg, dst, mask, &rem)
                   : ring_hop_eager(&t, words, cur, deg, dst, mask, &rem);
      }
      if (next < 0) {
        FINISH(m, cur);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      lcur[m] = next;
      lrem[m] = rem;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (rem != 0)
        prefetch_entries(&t, next);
    }
  }
}

LANE_DRIVER(rcm_route_ring, ring_lanes, RING_LANE)

/* Symphony (scalar Greedy_ring) on Table.build's layout
   (Overlay.Table.Shortcuts): near neighbour i < k_n of v is its
   (i + 1)-th successor, computed, and shortcut j is column[v*k_s + j],
   loaded. The greedy choice, and the order-independence that lets the
   hop probe liveness best candidate first, are the ring lane's (above).

   On x86-64-v4 CPUs the driver runs the AVX-512 lane of the section
   below (symphony_v4), 64 walks at a time; symphony_lanes is the
   portable lane every other CPU runs and the reference for that one.

   A driver of its own rather than a rule code of entry(): with a third
   instance of ring_lanes in rcm_route_ring, that function's untouched
   BLOCK instance slowed from 14.0 to 22.6 ns per hop on a 2^20-node
   Symphony block (one AVX-512 Xeon vCPU), so the ring lane stays as it
   was, and Symphony blocks (Table.flatten) still route there. Here a
   hop keeps each candidate's id in its key, so the winner is read from
   the key instead of recomputed, and a lane prefetches the next node's
   shortcut row only (successors are computed; their liveness words sit
   beside the current node's). The lane's struct
   table is the column as a uniform block of degree k_s, so
   prefetch_entries and TAKE_PAIR fetch shortcut rows. Shortcuts are
   stored, not computed: one libm exp per shortcut per hop took this
   lane from 13.9 to 22.0 ns per hop at 2^20 nodes, q = 0.1.

   A hop is ring_hop_fast's lazy best-first probe without its key
   array: a pass packs (after << 30) | id per candidate, as
   ring_hop_eager does, and keeps the least key at or above a floor;
   when that candidate is dead the floor moves past its key and the
   pass is run again over the row (in L1 by then). A key holds its
   candidate's id, so moving the floor drops exactly the dead
   candidate, and the window test is one unsigned compare, so a pass
   compiles to conditional moves. An eager hop that probed every candidate closer
   than the best so far branched on each shortcut's distance, and took
   1.45x the ring lane's time per hop at (k_n, k_s) = (2, 4) and 1.56x
   at (0, 4) on the same entries as a block; this one took 0.78x at
   (1, 1), 0.93x at (2, 4), 0.96x at (0, 4) and 0.68x at (2, 31)
   (2^20 nodes, q = 0.1, 15 alternating 1M-pair batches). */
static inline intnat symphony_hop(const int32_t *row, intnat k_n, intnat k_s,
                                  const intnat *words, intnat cur, intnat dst,
                                  intnat mask, intnat *rem /* in/out */)
{
  uint64_t seed = (uint64_t)*rem << 30, floor = 0;
  for (;;) {
    uint64_t best = seed;
    for (intnat i = 1; i <= k_n; i++) {
      intnat cand = (cur + i) & mask;
      uint64_t key = ((uint64_t)((dst - cand) & mask) << 30) | (uint64_t)cand;
      best = key - floor < best - floor ? key : best;
    }
    for (intnat j = 0; j < k_s; j++) {
      intnat cand = row[j];
      uint64_t key = ((uint64_t)((dst - cand) & mask) << 30) | (uint64_t)cand;
      best = key - floor < best - floor ? key : best;
    }
    if (best == seed)
      return -1;
    intnat cand = (intnat)(best & 0x3FFFFFFF);
    if (alive_bit(words, cand)) {
      *rem = (intnat)(best >> 30);
      return cand;
    }
    floor = best + 1;
  }
}

LANE_BODY void symphony_lanes(const struct batch *b, intnat k_n)
{
  UNPACK(b, BLOCK);
  intnat mask = ((intnat)1 << t.bits) - 1, k_s = t.deg;
  intnat lk[RING_LANES], lcur[RING_LANES], ldst[RING_LANES], lhops[RING_LANES], lrem[RING_LANES];
  intnat lanes = n < RING_LANES ? n : RING_LANES, live = lanes, next_pair = 0;
  for (intnat m = 0; m < lanes; m++) {
    TAKE_PAIR(m);
    lrem[m] = (ldst[m] - lcur[m]) & mask;
  }
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      if (lrem[m] == 0) {
        FINISH(m, -1);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      intnat cur = lcur[m], rem = lrem[m];
      const int32_t *row = t.targets + cur * k_s;
      intnat next = symphony_hop(row, k_n, k_s, words, cur, ldst[m], mask, &rem);
      if (next < 0) {
        FINISH(m, cur);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      lcur[m] = next;
      lrem[m] = rem;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (rem != 0)
        prefetch_entries(&t, next);
    }
  }
}

/* --- AVX-512 lanes --------------------------------------------------------- */

/* The tree and xor lanes on FLIP and FLIP_SUFFIX, the ring lane on
   FINGER and the Symphony driver on its shortcut column, as AVX-512
   code for CPUs that run x86-64-v4. Block tables and hypercube keep
   the portable code above on every CPU, and so does every lane on
   other CPUs; the portable lanes are the reference the tests compare
   these with.

   A computed hop is a few ALU ops, and the portable lane spends them
   one pair at a time: a branch per probe that the predictor cannot
   learn (alive or dead at rate q), a dependent load of the alive word,
   and for xor a SplitMix mix of two 64-bit multiplies. Here eight
   pairs take a probe per instruction: a lane's candidate bit is
   63 - lzcnt (AVX512CD), the xor suffix's multiplies are mullo_epi64
   (AVX512DQ), liveness is one masked gather of the alive words, and
   which lanes hop and which pass over a dead candidate are mask bits,
   not branches. 64 lanes are eight independent vectors, so one
   vector's gather waits while the next ones issue. AVX2 has no 64-bit
   multiply, lzcnt or masks, so a v3 lane would emulate all three.
   Per hop, timing the C call alone on 300k drawn pairs at 2^20 nodes
   and q = 0.1-0.3 (one AVX-512 Xeon vCPU), tree went from 4.1-8.8 ns
   to 1.0-2.2 ns, xor from 6.8-12.1 ns to 2.2-2.7 ns and ring from
   5.7-11.0 ns to 0.9-1.1 ns. With a refill every VSTEPS = 4 steps,
   route-d20 ran within 1% of VSTEPS = 2 and 2% faster than 8.

   Each walk is the portable lane's, probe for probe; only the
   interleaving of pairs differs, and results are indexed by pair, the
   loadmap counts are sums, and no lane draws, so the outputs and the
   generator are the same. A step probes one candidate in every lane
   with a walk in progress. Before the first step and after every
   VSTEPS steps, a scalar pass finishes the lanes whose walks ended
   (hop count, stuck node, termination count) and gives each the next
   pair in pair order, or idles it; every lane starts out ended, with
   no pair.

   ASan does not check the gathers (it instruments plain loads and
   stores): their indices are node ids below 2^bits, or shortcut slots
   below 2^bits * k_s, the alive words cover 2^bits bits, and every
   gather is masked to the lanes with a walk in progress. So in the
   sanitize profile CHECK_GATHER tests each in-flight lane's index in
   scalar code before the gather; elsewhere it compiles to nothing. */

#ifdef RCM_LEVELS

#define VLANES 64
#define VSTEPS 4

typedef int64_t lane_words[VLANES] __attribute__((aligned(64)));

/* The walk of pair [k] ended at [cur]: delivered there (cur is the
   destination) or stuck there. */
static inline void lane_end(const struct batch *b, intnat k, intnat hops, intnat cur,
                            int delivered)
{
  b->hops_out[k] = hops;
  b->stuck_out[k] = delivered ? -1 : cur;
  if (b->term)
    b->term[cur]++;
}

#ifdef RCM_BOUNDS
/* The lanes of [act] index [at] below [n]. */
V4 static void check_gather(__mmask8 act, __m512i at, intnat n, const char *file, int line)
{
  int64_t idx[8];
  _mm512_storeu_si512(idx, at);
  for (unsigned h = act; h; h &= h - 1)
    rcm_bound(idx[__builtin_ctz(h)], n, file, line);
}
#define CHECK_GATHER(act, at, n) check_gather((act), (at), (n), __FILE__, __LINE__)
#else
#define CHECK_GATHER(act, at, n) ((void)0)
#endif

/* One step's liveness test: the lanes of [act] whose [cand] is alive. */
V4 static inline __mmask8 alive_v4(const struct batch *b, __mmask8 act, __m512i cand)
{
  const __m512i one = _mm512_set1_epi64(1);
  __m512i at = _mm512_srli_epi64(cand, 5);
  CHECK_GATHER(act, at, b->nwords);
  __m512i w = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), act, at, b->words, 8);
  w = _mm512_srlv_epi64(w, _mm512_and_si512(cand, _mm512_set1_epi64(31)));
  return _mm512_mask_test_epi64_mask(act, w, one);
}

/* trav[cand] for the lanes of [hop]. */
V4 static inline void count_hops_v4(const struct batch *b, __mmask8 hop, __m512i cand)
{
  int64_t at[8];
  _mm512_storeu_si512(at, cand);
  for (unsigned h = hop; h; h &= h - 1)
    b->trav[at[__builtin_ctz(h)]]++;
}

V4 static inline __m512i mix_v4(__m512i z)
{
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 30));
  z = _mm512_mullo_epi64(z, _mm512_set1_epi64((int64_t)SPLITMIX_MUL1));
  z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 27));
  z = _mm512_mullo_epi64(z, _mm512_set1_epi64((int64_t)SPLITMIX_MUL2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/* Tree and xor. A lane holds cur, dst, rem (the bits of cur ^ dst not
   yet probed at this hop) and its hop count, and probes the entry that
   corrects rem's highest bit p, index bits - 1 - p: cur ^ 2^p, whose
   low p bits FLIP_SUFFIX replaces with entry()'s draw. An alive
   candidate is the hop, and rem becomes its distance to dst. A dead
   one ends a tree walk (rem = 0); xor ([retry]) clears its bit and
   probes the next one down. A walk ends at rem = 0: delivered iff
   cur == dst, else stuck at cur. */
V4 static inline __attribute__((always_inline)) void
flip_lanes_v4(const struct batch *b, int retry, int suffix)
{
  lane_words cur = {0}, dst = {0}, rem = {0}, hops = {0};
  intnat lk[VLANES], next_pair = 0;
  uint64_t busy = ~(uint64_t)0;
  for (int m = 0; m < VLANES; m++)
    lk[m] = -1;
  const __m512i one = _mm512_set1_epi64(1), top = _mm512_set1_epi64(63),
                bits = _mm512_set1_epi64(b->t.bits), last = _mm512_set1_epi64(b->t.bits - 1),
                seed = _mm512_set1_epi64((int64_t)b->t.seed),
                gamma = _mm512_set1_epi64((int64_t)SPLITMIX_GAMMA),
                dead_clears = _mm512_set1_epi64(retry ? 0 : -1);
  for (;;) {
    uint64_t ended = 0;
    for (int v = 0; v < VLANES; v += 8) {
      __m512i r = _mm512_load_si512(rem + v);
      ended |= (uint64_t)_mm512_testn_epi64_mask(r, r) << v;
    }
    for (ended &= busy; ended; ended &= ended - 1) {
      int m = __builtin_ctzll(ended);
      if (lk[m] >= 0)
        lane_end(b, lk[m], hops[m], cur[m], cur[m] == dst[m]);
      if (next_pair < b->n) {
        lk[m] = next_pair++;
        cur[m] = Long_val(AT(b->srcs, lk[m]));
        dst[m] = Long_val(AT(b->dsts, lk[m]));
        rem[m] = cur[m] ^ dst[m];
        hops[m] = 0;
      } else
        busy &= ~((uint64_t)1 << m);
    }
    if (!busy)
      return;
    for (int step = 0; step < VSTEPS; step++)
      for (int v = 0; v < VLANES; v += 8) {
        __m512i r = _mm512_load_si512(rem + v);
        __mmask8 act = _mm512_test_epi64_mask(r, r);
        if (!act)
          continue;
        __m512i c = _mm512_load_si512(cur + v);
        __m512i p = _mm512_sub_epi64(top, _mm512_lzcnt_epi64(r));
        __m512i bit = _mm512_sllv_epi64(one, p);
        __m512i cand = _mm512_xor_si512(c, bit);
        if (suffix) {
          __m512i draw = _mm512_add_epi64(_mm512_mullo_epi64(c, bits), _mm512_sub_epi64(last, p));
          __m512i z = mix_v4(_mm512_add_epi64(
              seed, _mm512_mullo_epi64(_mm512_add_epi64(draw, one), gamma)));
          __m512i low = _mm512_sub_epi64(bit, one);
          cand = _mm512_or_si512(_mm512_andnot_si512(low, cand),
                                 _mm512_and_si512(_mm512_srli_epi64(z, 2), low));
        }
        __mmask8 hop = alive_v4(b, act, cand), dead = act & ~hop;
        __m512i h = _mm512_load_si512(hops + v);
        _mm512_store_si512(cur + v, _mm512_mask_mov_epi64(c, hop, cand));
        _mm512_store_si512(hops + v, _mm512_mask_add_epi64(h, hop, h, one));
        r = _mm512_mask_xor_epi64(r, hop, cand, _mm512_load_si512(dst + v));
        r = _mm512_mask_andnot_epi64(r, dead, _mm512_or_si512(bit, dead_clears), r);
        _mm512_store_si512(rem + v, r);
        if (b->trav && hop)
          count_hops_v4(b, hop, cand);
      }
  }
}

V4 static void flip_v4(const struct batch *b, int retry)
{
  if (b->t.rule == FLIP_SUFFIX)
    flip_lanes_v4(b, retry, 1);
  else
    flip_lanes_v4(b, retry, 0);
}

/* Ring. A lane holds cur, rem (the clockwise distance to dst), the
   finger k it probes next and its hop count: ring_hop_finger's scan,
   one probe per step. k starts at floor(log2 rem); an alive finger is
   the hop (rem -= 2^k, and k starts again at floor(log2 rem)), a dead
   one passes to k - 1. A walk ends at k < 0: delivered iff rem = 0
   (where floor(log2 rem), 63 - lzcnt, is -1), else stuck at cur. */
static inline int64_t first_finger(int64_t rem)
{
  return rem ? 63 - __builtin_clzll((uint64_t)rem) : -1;
}

V4 static void ring_v4(const struct batch *b)
{
  lane_words cur = {0}, rem = {0}, fk, hops = {0};
  intnat lk[VLANES], next_pair = 0, mask = ((intnat)1 << b->t.bits) - 1;
  uint64_t busy = ~(uint64_t)0;
  for (int m = 0; m < VLANES; m++)
    lk[m] = fk[m] = -1;
  const __m512i one = _mm512_set1_epi64(1), top = _mm512_set1_epi64(63),
                vmask = _mm512_set1_epi64(mask);
  for (;;) {
    uint64_t ended = 0;
    for (int v = 0; v < VLANES; v += 8)
      ended |= (uint64_t)_mm512_movepi64_mask(_mm512_load_si512(fk + v)) << v;
    for (ended &= busy; ended; ended &= ended - 1) {
      int m = __builtin_ctzll(ended);
      if (lk[m] >= 0)
        lane_end(b, lk[m], hops[m], cur[m], rem[m] == 0);
      if (next_pair < b->n) {
        lk[m] = next_pair++;
        cur[m] = Long_val(AT(b->srcs, lk[m]));
        rem[m] = (Long_val(AT(b->dsts, lk[m])) - cur[m]) & mask;
        fk[m] = first_finger(rem[m]);
        hops[m] = 0;
      } else
        busy &= ~((uint64_t)1 << m);
    }
    if (!busy)
      return;
    for (int step = 0; step < VSTEPS; step++)
      for (int v = 0; v < VLANES; v += 8) {
        __m512i k = _mm512_load_si512(fk + v);
        __mmask8 act = (__mmask8)~_mm512_movepi64_mask(k);
        if (!act)
          continue;
        __m512i c = _mm512_load_si512(cur + v), r = _mm512_load_si512(rem + v);
        __m512i finger = _mm512_sllv_epi64(one, k);
        __m512i cand = _mm512_and_si512(_mm512_add_epi64(c, finger), vmask);
        __mmask8 hop = alive_v4(b, act, cand), dead = act & ~hop;
        __m512i h = _mm512_load_si512(hops + v);
        r = _mm512_mask_sub_epi64(r, hop, r, finger);
        k = _mm512_mask_sub_epi64(k, dead, k, one);
        k = _mm512_mask_sub_epi64(k, hop, top, _mm512_lzcnt_epi64(r));
        _mm512_store_si512(cur + v, _mm512_mask_mov_epi64(c, hop, cand));
        _mm512_store_si512(rem + v, r);
        _mm512_store_si512(fk + v, k);
        _mm512_store_si512(hops + v, _mm512_mask_add_epi64(h, hop, h, one));
        if (b->trav && hop)
          count_hops_v4(b, hop, cand);
      }
  }
}

/* symphony_hop's key (after << 30) | id of [cand] on the walk to
   [dst], less the floor [f]. */
V4 static inline __m512i key_v4(__m512i dst, __m512i cand, __m512i vmask, __m512i f)
{
  __m512i after = _mm512_and_si512(_mm512_sub_epi64(dst, cand), vmask);
  return _mm512_sub_epi64(_mm512_or_si512(_mm512_slli_epi64(after, 30), cand), f);
}

/* Symphony. A lane holds cur, dst, rem (the clockwise distance to
   dst), the floor of symphony_hop's probe window and its hop count,
   and [walking] has a mask per vector of the lanes whose walk is in
   progress (one word for all 64 would chain each vector's gathers to
   the previous vector's outcome, and serialise the misses). A step
   is one pass of symphony_hop: it packs (after << 30) | id for the k_n
   successors, computed, and the k_s shortcuts, gathered from the
   column at cur * k_s + j, and keeps the least key in [floor, seed),
   seed = rem << 30, as the unsigned minimum of key - floor (keys below
   the floor wrap past every other). One gather of alive words then
   tests every lane's winner. An alive winner is the hop (rem becomes
   its distance and the floor 0), a dead one moves the floor past its
   key, and a lane with no key left ends stuck at cur; a walk also
   ends, delivered, at rem = 0. A dead winner's next pass gathers the
   row again, from L1 by then.

   Per hop, timing the C call alone on 300k drawn pairs at 2^20 nodes
   and q = 0.1-0.3 against the portable lane (one AVX-512 Xeon vCPU),
   (k_n, k_s) = (1, 1) took 0.35-0.51x (4.5-9.8 ns against
   10.2-19.5 ns), (0, 4) 0.44-0.59x, (2, 4) 0.38-0.56x and (2, 31)
   0.74-0.97x. At 2^14 nodes, where the column sits in L2, (1, 1) took
   0.18x: at 2^20 the column gathers are what is left. A prefetch of
   each hopping lane's next row, scalar over the hop mask, took (1, 1)
   at q = 0.1 from 0.35-0.41x to 0.57-0.76x, so the lane issues
   none. */
V4 static void symphony_v4(const struct batch *b, intnat k_n)
{
  lane_words cur = {0}, dst = {0}, rem = {0}, floor = {0}, hops = {0};
  intnat lk[VLANES], next_pair = 0, mask = ((intnat)1 << b->t.bits) - 1, k_s = b->t.deg;
  uint64_t busy = ~(uint64_t)0;
  __mmask8 walking[VLANES / 8] = {0};
  for (int m = 0; m < VLANES; m++)
    lk[m] = -1;
  const int32_t *column = b->t.targets;
  const __m512i one = _mm512_set1_epi64(1), vmask = _mm512_set1_epi64(mask),
                ids = _mm512_set1_epi64(0x3FFFFFFF), row_len = _mm512_set1_epi64(k_s);
  for (;;) {
    uint64_t ended = 0;
    for (int v = 0; v < VLANES; v += 8)
      ended |= (uint64_t)(__mmask8)~walking[v / 8] << v;
    for (ended &= busy; ended; ended &= ended - 1) {
      int m = __builtin_ctzll(ended);
      if (lk[m] >= 0)
        lane_end(b, lk[m], hops[m], cur[m], rem[m] == 0);
      if (next_pair < b->n) {
        lk[m] = next_pair++;
        cur[m] = Long_val(AT(b->srcs, lk[m]));
        dst[m] = Long_val(AT(b->dsts, lk[m]));
        rem[m] = (dst[m] - cur[m]) & mask;
        floor[m] = hops[m] = 0;
        walking[m / 8] |= (__mmask8)((rem[m] != 0) << (m % 8));
      } else
        busy &= ~((uint64_t)1 << m);
    }
    if (!busy)
      return;
    for (int step = 0; step < VSTEPS; step++)
      for (int v = 0; v < VLANES; v += 8) {
        __mmask8 act = walking[v / 8];
        if (!act)
          continue;
        __m512i c = _mm512_load_si512(cur + v), d = _mm512_load_si512(dst + v),
                r = _mm512_load_si512(rem + v), f = _mm512_load_si512(floor + v);
        __m512i seed = _mm512_slli_epi64(r, 30), least = _mm512_sub_epi64(seed, f);
        for (intnat i = 1; i <= k_n; i++) {
          __m512i cand = _mm512_and_si512(_mm512_add_epi64(c, _mm512_set1_epi64(i)), vmask);
          least = _mm512_min_epu64(least, key_v4(d, cand, vmask, f));
        }
        __m512i row = _mm512_mullo_epi64(c, row_len);
        for (intnat j = 0; j < k_s; j++) {
          __m512i at = _mm512_add_epi64(row, _mm512_set1_epi64(j));
          CHECK_GATHER(act, at, b->ntargets);
          __m512i cand = _mm512_cvtepu32_epi64(
              _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), act, at, column, 4));
          least = _mm512_min_epu64(least, key_v4(d, cand, vmask, f));
        }
        __m512i best = _mm512_add_epi64(least, f), cand = _mm512_and_si512(best, ids);
        __mmask8 probe = _mm512_mask_cmpneq_epi64_mask(act, best, seed);
        __mmask8 hop = alive_v4(b, probe, cand), dead = probe & ~hop;
        __m512i h = _mm512_load_si512(hops + v);
        r = _mm512_mask_srli_epi64(r, hop, best, 30);
        f = _mm512_mask_add_epi64(_mm512_maskz_mov_epi64((__mmask8)~hop, f), dead, best, one);
        _mm512_store_si512(cur + v, _mm512_mask_mov_epi64(c, hop, cand));
        _mm512_store_si512(rem + v, r);
        _mm512_store_si512(floor + v, f);
        _mm512_store_si512(hops + v, _mm512_mask_add_epi64(h, hop, h, one));
        walking[v / 8] = dead | _mm512_mask_test_epi64_mask(hop, r, r);
        if (b->trav && hop)
          count_hops_v4(b, hop, cand);
      }
  }
}
#endif

static int route_v4(intnat variant, int lane, const struct batch *b)
{
#ifdef RCM_LEVELS
  if (variant != 0 || !cpu_v4())
    return 0;
  if (lane == RING_LANE) {
    if (b->t.rule != FINGER)
      return 0;
    ring_v4(b);
    return 1;
  }
  if (b->t.rule != FLIP && b->t.rule != FLIP_SUFFIX)
    return 0;
  flip_v4(b, lane == XOR_LANE);
  return 1;
#else
  (void)variant;
  (void)lane;
  (void)b;
  return 0;
#endif
}

/* The lane drivers' arguments, with the variant and k_n first, the
   column in the targets place, k_s in the degree place and an unused
   offsets array. Variant 0 runs symphony_v4 when the CPU runs
   x86-64-v4, as route_v4 picks the rule lanes; 1 runs
   symphony_lanes. */
CAMLprim value rcm_route_symphony(value vvariant, value vk_n, value vcolumn, value vwords,
                                  value voffsets, value vsrcs, value vdsts, value vn,
                                  value vhops_out, value vstuck_out, value vbits, value vk_s,
                                  value vtrav, value vterm)
{
  struct batch b = batch_of(BLOCK, 0, vcolumn, vwords, voffsets, vsrcs, vdsts, vn,
                            vhops_out, vstuck_out, vbits, vk_s, vtrav, vterm);
#ifdef RCM_LEVELS
  if (Long_val(vvariant) == 0 && cpu_v4())
    symphony_v4(&b, Long_val(vk_n));
  else
#else
  (void)vvariant;
#endif
    symphony_lanes(&b, Long_val(vk_n));
  return Val_unit;
}

CAMLprim value rcm_route_symphony_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_route_symphony(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                            argv[6], argv[7], argv[8], argv[9], argv[10], argv[11],
                            argv[12], argv[13]);
}

/* Prng.Splitmix.int at [bound] > 0 with its rejection limit computed
   once per bound: the top 62 bits of a draw, drawn again while above
   the limit, then reduced mod [bound]. */
static inline intnat splitmix_limit(intnat bound)
{
  const intnat max62 = ((intnat)1 << 62) - 1;
  return max62 - (max62 % bound + 1) % bound;
}

static inline intnat splitmix_int_limited(uint64_t *state, intnat bound, intnat limit)
{
  intnat v;
  do
    v = (intnat)(splitmix_next(state) >> 2);
  while (v > limit);
  return v % bound;
}

/* --- pair draws ------------------------------------------------------------ */

/* Where drawn pairs come from, fixed for a whole call: survivor i is
   rank_select(i) over the mask's rank index (Overlay.Rank, rank.h), or
   pool[i] when a pool of ids is given (Route_batch's ?pool). A pool
   is not trusted: each id it yields is checked against the node range
   before anything is indexed with it. Select only yields ids below
   the mask's length, which is the node count. */
struct survivors {
  struct rank rank;
  value pool;           /* an int array, empty when the index is the source */
  intnat count, limit;  /* members to draw from (0: pairs are given) */
};

static inline struct survivors survivors_of(value vrank, value vpool)
{
  struct survivors sv;
  sv.rank = rank_of(vrank);
  sv.pool = vpool;
  sv.count = Wosize_val(vpool) > 0 ? (intnat)Wosize_val(vpool) : sv.rank.count;
  sv.limit = sv.count > 0 ? splitmix_limit(sv.count) : 0;
  return sv;
}

/* A rank select: rank_select, or rank_select_pdep in the x86-64-v4
   draw loop. */
typedef intnat select_fn(const struct rank *, intnat);

LANE_BODY intnat survivor(const struct survivors *sv, intnat i, select_fn *select)
{
  return Wosize_val(sv->pool) > 0 ? Long_val(AT(sv->pool, i)) : select(&sv->rank, i);
}

/* One pair as Stats.Sampler.ordered_indexes draws it — the source
   index, then destination indexes until one differs — each mapped to
   its id. Returns 0; or -1 when an id is outside [0, 2^bits), with
   that id in *src and the generator just past the draw that picked
   it. */
LANE_BODY int draw_pair(const struct survivors *sv, select_fn *select, uint64_t *s,
                        intnat bits, intnat *src, intnat *dst)
{
  intnat i = splitmix_int_limited(s, sv->count, sv->limit), j;
  *src = survivor(sv, i, select);
  if ((uintnat)*src >> bits)
    return -1;
  do
    j = splitmix_int_limited(s, sv->count, sv->limit);
  while (j == i);
  *dst = survivor(sv, j, select);
  if ((uintnat)*dst >> bits) {
    *src = *dst;
    return -1;
  }
  return 0;
}

/* Pairs [lo, hi) into srcs/dsts (OCaml int arrays: immediate stores,
   no write barrier). Returns hi, or the index of the pair a rejected
   id stopped, with that id in srcs. The loop is built twice: with the
   searched select, and for x86-64-v4 CPUs with the PDEP one, which
   returns the same ids. */
LANE_BODY intnat draw_loop(const struct survivors *sv, select_fn *select, uint64_t *s,
                           value vsrcs, value vdsts, intnat lo, intnat hi, intnat bits)
{
  intnat k;
  for (k = lo; k < hi; k++) {
    intnat src, dst;
    int bad = draw_pair(sv, select, s, bits, &src, &dst);
    AT(vsrcs, k) = Val_long(src);
    if (bad)
      break;
    AT(vdsts, k) = Val_long(dst);
  }
  return k;
}

#ifdef RCM_LEVELS
V4 static intnat draw_loop_v4(const struct survivors *sv, uint64_t *s, value vsrcs,
                              value vdsts, intnat lo, intnat hi, intnat bits)
{
  return draw_loop(sv, rank_select_pdep, s, vsrcs, vdsts, lo, hi, bits);
}
#endif

/* Route_batch's draw for the lanes that route after drawing, through
   draw_loop from the generator [rng], whose final state is written
   back: with the PDEP select when [variant] is 0 and the CPU runs
   x86-64-v4, as route_v4 picks the lanes. */
CAMLprim value rcm_draw_pairs(value vvariant, value vrank, value vpool, value vrng,
                              value vsrcs, value vdsts, value vlo, value vhi, value vbits)
{
  struct survivors sv = survivors_of(vrank, vpool);
  intnat bits = Long_val(vbits), lo = Long_val(vlo), hi = Long_val(vhi), k;
  uint64_t s;
  memcpy(&s, Bytes_val(vrng), sizeof s);
#ifdef RCM_LEVELS
  if (Long_val(vvariant) == 0 && cpu_v4())
    k = draw_loop_v4(&sv, &s, vsrcs, vdsts, lo, hi, bits);
  else
#else
  (void)vvariant;
#endif
    k = draw_loop(&sv, rank_select, &s, vsrcs, vdsts, lo, hi, bits);
  memcpy(Bytes_val(vrng), &s, sizeof s);
  return Val_long(k);
}

CAMLprim value rcm_draw_pairs_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_draw_pairs(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8]);
}

/* Hypercube (CAN, scalar Hypercube_router): the next hop is uniform
   over the alive neighbours correcting a differing bit. The scan takes
   the set bits of [cur ^ dst] lowest first (table index
   [bits - 1 - ctz]) and keeps each alive candidate with probability
   1/seen — one Splitmix.int rng seen per alive candidate, draw for
   draw the scalar sequence. Those draws pin the pair order, so the
   pairs are walked one at a time, not in lanes. On a block, what hides
   part of the row latency instead is a prefetch of each alive
   candidate's row as the scan finds it, since one of them is the next
   hop; on the FLIP rule every candidate is computed. The rejection
   limits of the reservoir bounds (seen <= 64) are tabled once per
   call, which takes one division off every draw.

   When [sv] has members, the pairs are drawn here too, by draw_pair,
   interleaved with the routing draws; a rejected id stops the call
   with the id in stuck_out[k]. Otherwise srcs/dsts give the pairs.

   The generator [rng] is a Prng.Splitmix.t, 8 bytes holding the
   native-endian state; its final state is written back on every exit.
   Returns the number of pairs routed: n, or the index of the pair
   whose drawn id was rejected. */
LANE_BODY intnat hypercube_walk(const struct batch *b, intnat rule,
                               const struct survivors *sv, uint64_t *state)
{
  UNPACK(b, rule);
  intnat bits = t.bits;
  intnat limits[65];
  for (intnat c = 1; c <= 64; c++)
    limits[c] = splitmix_limit(c);
  uint64_t s = *state;
  intnat k;
  for (k = 0; k < n; k++) {
    intnat src, dst;
    if (sv->count > 0) {
      if (draw_pair(sv, rank_select, &s, bits, &src, &dst) < 0) {
        stuck_out[k] = src;
        break;
      }
    } else {
      src = Long_val(AT(vsrcs, k));
      dst = Long_val(AT(vdsts, k));
    }
    intnat cur = src, hops = 0, stuck = -1;
    while (cur != dst) {
      uintnat rem = (uintnat)(cur ^ dst);
      intnat chosen = -1, seen = 0;
      do {
        intnat cand = entry(&t, cur, bits - 1 - __builtin_ctzl(rem));
        if (alive_bit(words, cand)) {
          prefetch_entries(&t, cand);
          seen++;
          if (splitmix_int_limited(&s, seen, limits[seen]) == 0)
            chosen = cand;
        }
        rem &= rem - 1;
      } while (rem);
      if (chosen < 0) {
        stuck = cur;
        break;
      }
      cur = chosen;
      hops++;
      if (trav)
        trav[cur]++;
    }
    hops_out[k] = hops;
    stuck_out[k] = stuck;
    if (term)
      term[stuck < 0 ? dst : stuck]++;
  }
  *state = s;
  return k;
}

CAMLprim value rcm_route_hypercube(value vrule, value vseed, value vtargets,
                                   value vwords, value voffsets, value vsrcs,
                                   value vdsts, value vrank, value vpool, value vn,
                                   value vhops_out, value vstuck_out,
                                   value vbits, value vdeg, value vtrav,
                                   value vterm, value vrng)
{
  struct batch b = batch_of(Long_val(vrule), (uint64_t)Int64_val(vseed), vtargets,
                            vwords, voffsets, vsrcs, vdsts, vn, vhops_out,
                            vstuck_out, vbits, vdeg, vtrav, vterm);
  struct survivors sv = survivors_of(vrank, vpool);
  uint64_t s;
  memcpy(&s, Bytes_val(vrng), sizeof s);
  intnat routed = b.t.rule == BLOCK ? hypercube_walk(&b, BLOCK, &sv, &s)
                                    : hypercube_walk(&b, b.t.rule, &sv, &s);
  memcpy(Bytes_val(vrng), &s, sizeof s);
  return Val_long(routed);
}

CAMLprim value rcm_route_hypercube_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_route_hypercube(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10], argv[11], argv[12], argv[13], argv[14],
                             argv[15], argv[16]);
}
