/* Store.read_batch's loop in C: a run of quorum reads, each drawing its
   client and its key, probing the key's holders through the sparse
   walks of sparse_walk.h, and counting loads and outcomes in place.

   Why C: reads are most of a storage trial, and in OCaml each probe
   was a call into Sparse_router and a closure-free but out-of-line
   walk. The loop leaves OCaml only where OCaml must act: after a read
   whose probes found a dead holder and a responder, it returns so that
   Store's repair rewrites the key's holder set before the next read
   draws.

   Bit-identity contract (pinned by test/test_storage.ml against the
   Store.read loop, and by the storage goldens under --no-batch): a
   read consumes the generator as Store.read_batch's OCaml path does,
   Splitmix.int over the survivors for the client (its id through the
   rank index, Overlay.Rank), then Splitmix.float for the Zipf key, by
   Zipf.draw's binary search over the cdf; it probes holders in slot
   order until rq answered, as Store.read does, and the walks take
   Sparse_router's hops. Loads and tally fields are OCaml ints, written
   as immediates: no write barrier.

   No allocation, no callbacks, no exceptions; the OCaml caller checks
   that the rank has members and that the overlay has a C walk. The
   sanitize profile checks every index into the store's arrays
   (bounds.h). */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

#include "bounds.h"
#include "rank.h"
#include "sparse_walk.h"
#include "splitmix.h"

/* The fields of a Store.t and of a Store.tally, by position. */
enum { T_OVERLAY, T_QUORUM, T_HOLDERS, T_LOADS, T_CDF, T_WALK, T_PENDING };
enum { ATTEMPTED, QUORUM_READS, DEGRADED_READS, FAILED_READS, NO_CLIENT, PROBE_ROUTES };

static inline void bump(value block, intnat field, intnat by)
{
  AT(block, field) = Val_long(Long_val(Field(block, field)) + by);
}

/* Up to [count] reads from clients drawn over the rank's members.
   Returns the reads done; negated when the last one left a repair
   pending, whose key, coordinator, dead-slot count and dead slots are
   then in the store's pending array. */
CAMLprim value rcm_store_read_batch(value vt, value vrng, value vrank, value vtally,
                                    value vcount)
{
  struct rank rank = rank_of(vrank);
  struct sparse o = sparse_of(Field(vt, T_OVERLAY), Field(vrank, 0), Long_val(Field(vt, T_WALK)));
  value holders = Field(vt, T_HOLDERS), loads = Field(vt, T_LOADS), pending = Field(vt, T_PENDING);
  const double *cdf = (const double *)Field(vt, T_CDF);
  intnat top = (intnat)(Wosize_val(Field(vt, T_CDF)) / Double_wosize) - 1;
  intnat rq = Long_val(Field(Field(vt, T_QUORUM), 1)), count = Long_val(vcount);
  intnat done = 0, outcomes[3] = {0, 0, 0}, probe_routes = 0, repair = 0;
  uint64_t s = splitmix_load(vrng);
  while (done < count && !repair) {
    intnat client = rank_select(&rank, splitmix_int(&s, rank.count));
    double u = splitmix_float(&s);
    intnat key = 0, hi = top;
    while (key < hi) {
      intnat mid = (key + hi) >> 1;
      if (cdf[BOUND(mid, top + 1)] > u)
        hi = mid;
      else
        key = mid + 1;
    }
    value h = AT(holders, key);
    intnat r = Wosize_val(h), reached = 0, coordinator = -1, dead = 0;
    for (intnat slot = 0; reached < rq && slot < r; slot++) {
      intnat holder = Long_val(AT(h, slot)), hops;
      int ok = holder == client;
      if (!ok) {
        probe_routes++;
        ok = sparse_alive(&o, holder) && sparse_walk(&o, client, holder, &hops) < 0;
      }
      if (ok) {
        reached++;
        bump(loads, holder, 1);
        if (coordinator < 0)
          coordinator = holder;
      } else if (!sparse_alive(&o, holder))
        AT(pending, 3 + dead++) = Val_long(slot);
    }
    done++;
    /* Quorum.classify: quorum, degraded, unavailable. */
    outcomes[reached >= rq ? 0 : reached > 0 ? 1 : 2]++;
    if (coordinator >= 0 && dead > 0) {
      AT(pending, 0) = Val_long(key);
      AT(pending, 1) = Val_long(coordinator);
      AT(pending, 2) = Val_long(dead);
      repair = 1;
    }
  }
  splitmix_store(vrng, s);
  bump(vtally, ATTEMPTED, done);
  bump(vtally, QUORUM_READS, outcomes[0]);
  bump(vtally, DEGRADED_READS, outcomes[1]);
  bump(vtally, FAILED_READS, outcomes[2]);
  bump(vtally, PROBE_ROUTES, probe_routes);
  return Val_long(repair ? -done : done);
}
