(** Keyed cache of built overlay tables for Monte-Carlo sweeps.

    Overlay construction depends only on (geometry, bits, build seed) —
    never on the failure probability — yet a q-sweep re-runs it for
    every (trial, q) grid point. This cache builds each overlay once
    per sweep and hands the same immutable table back on every later
    hit, so a sweep pays [trials] builds instead of [|qs| × trials].

    Each entry also records the PRNG state left behind by the build
    ({!Prng.Splitmix.state}), so a cache hit can resume the trial's
    random stream exactly where a fresh build would have left it:
    failure sampling and routing draw the same values whether the
    build ran or was skipped, keeping results bit-identical to the
    uncached path.

    All operations are thread-safe; the returned tables are immutable
    and may be routed over concurrently from several domains.

    When {!Obs.Metrics} is enabled the cache feeds the global counters
    [cache/hits], [cache/misses], [cache/evictions] and
    [cache/double_builds] (summed over every cache instance), and each
    build is traced as an [overlay/build] span. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh, empty cache holding at most [capacity] tables (default
    128). Inserting past capacity evicts the oldest-inserted entry
    only — never the whole cache — so entries shared by in-flight
    sweeps survive unrelated insertions; evicted tables remain valid
    for holders (they are immutable), and a later miss on the same key
    deterministically rebuilds the identical table.
    @raise Invalid_argument if [capacity < 1]. *)

val get :
  t -> ?backend:Table.backend -> bits:int -> build_seed:int64 -> Rcm.Geometry.t ->
  Table.t * int64
(** [get cache ~bits ~build_seed geometry] is [(table, resume)] where
    [table] is the overlay that [Table.build] produces from a
    generator in state [build_seed], and [resume] is the generator's
    state after that build. Repeated calls with the same key return
    the physically same table. [backend] is ignored: {!Table.build}
    has one layout, and the argument remains only because the
    benchmark harness in [perfbench/] still passes it. *)

val locked : t -> (unit -> 'a) -> 'a
(** [locked t f] runs [f] while holding the cache's lock, releasing it
    when [f] returns {e or raises}. Used by the accessors below; [f]
    must not re-enter the cache — the lock is not recursive. Test hook:
    lets [test_exec] check that a raising [f] releases the lock. *)

val hits : t -> int
(** Lookups served from the cache. Test hook: [test_exec]'s LRU cases
    check the hit count. *)

val misses : t -> int

val evictions : t -> int
(** Entries dropped to make room at capacity. Test hook: [test_exec]'s
    LRU cases check that a full cache evicts one entry, not all. *)

val double_builds : t -> int
(** Builds whose result was discarded because a concurrent miss on the
    same key inserted first (wasted but harmless work — both builds
    are deterministic in the key). *)

val length : t -> int
(** Number of cached tables. Test hook: [test_exec]'s LRU cases check
    the cache stays at capacity. *)

