(** Kademlia-style k-bucket tables: the level-i bucket of node v holds
    up to k distinct contacts matching v's first i-1 bits and differing
    on bit i (fewer when the identifier space has fewer candidates —
    deep buckets are inherently small).

    Buckets carry the maintenance discipline of real Kademlia
    implementations: contacts stay in least-recently-seen order (head
    at index 0, most recently seen at the tail), {!maintain} applies
    ping-before-evict to each bucket's head, and each bucket keeps a
    bounded replacement cache whose most-recently-seen entry is
    promoted when a dead head is evicted.

    Contacts and caches live in flat [int] arrays, one fixed run of
    slots per bucket. The hooks that change them — {!observe},
    {!maintain} and the bucket draw shared by {!build} and {!rejoin}
    — are C loops over those arrays
    that store immediates, so they allocate nothing and pass nothing
    through the write barrier. Liveness is an alive mask
    ({!Failure.t}), read one word per contact, not a closure. The
    draws are [Prng.Splitmix.int]'s, and the generator's state is
    written back after each drawing call.

    Used by the replication experiments (A5) and the churn simulators;
    the basic single-contact tables live in {!Table}. *)

type t

val build :
  ?rng:Prng.Splitmix.t -> ?cache_k:int -> bits:int -> k:int -> unit -> t
(** Draws every bucket, node-major and level-ascending. A bucket with
    no more candidates than [k] holds all of them in suffix order, with
    no draw; a larger one draws [k] distinct suffixes by rejection.
    [cache_k] bounds each bucket's replacement cache (default [0]: no
    cache, matching the static experiments).
    @raise Invalid_argument when [k < 1] or [cache_k < 0]. *)

val bits : t -> int
val node_count : t -> int

val length : t -> int -> int -> int
(** [length t v level] is the number of contacts in [v]'s bucket for
    bit [level] — [Array.length (bucket t v level)] without the copy.
    @raise Invalid_argument when [v] is outside [0 .. 2^bits - 1] or
    the level outside 1..bits. *)

val contact : t -> int -> int -> int -> int
(** [contact t v level i] is the [i]-th contact of that bucket,
    least-recently-seen first — [(bucket t v level).(i)] without the
    copy. Together with {!length} it is the allocation-free read path
    for routing; the value is read at call time, so a later change to
    the bucket is seen by the next call.
    @raise Invalid_argument when [v], [level] or [i] is out of range. *)

val bucket : t -> int -> int -> int array
(** [bucket t v level] is a copy of the contacts of [v]'s bucket for
    bit [level] (1-based from the MSB), least-recently-seen first.
    Mutating the returned array cannot affect the table. Test hook:
    routing shows only which contact answers, and [test_replication]
    checks the bucket order against its list model.
    @raise Invalid_argument when [v] or the level is out of range. *)

val cache : t -> int -> int -> int array
(** A copy of the bucket's replacement cache, oldest first. Test hook:
    nothing but this shows the cache, which [test_replication] checks
    against its list model.
    @raise Invalid_argument when [v] or the level is out of range. *)

val observe : t -> int -> int -> unit
(** [observe t v id] records that [v] heard from [id]: an existing
    contact moves to the tail; a new contact is appended when the
    bucket has room; otherwise it enters the replacement cache (whose
    oldest entry is dropped beyond [cache_k]). No-op when [v = id].
    @raise Invalid_argument when [v] or [id] is outside
    [0 .. 2^bits - 1]. *)

val maintain : t -> int -> alive:Failure.t -> unit
(** One ping-before-evict pass over every non-empty bucket of node
    [v], level-ascending: a live head is refreshed to the tail; a dead
    head is evicted and the cache's most-recently-seen entry, if any,
    is appended in its place.
    @raise Invalid_argument when [v] is out of range or [alive] does
    not cover exactly [2^bits] nodes. *)

val rejoin : t -> Prng.Splitmix.t -> alive:Failure.t -> int -> unit
(** A rejoining node's bootstrap: every bucket of [v] is redrawn in
    level order and its replacement cache cleared, then [observe t c v]
    runs for each live contact [c] of [v], buckets in level order and
    each bucket head first. The announce is what seeds the contacts'
    buckets and replacement caches with the returned node. A redraw
    prefers live contacts: each draw retries a dead candidate up to 8
    times. A suffix already drawn is redrawn without counting as a
    retry, so with every node alive the draws match {!build}'s for the
    same generator state.
    @raise Invalid_argument when [v] is out of range or [alive] does
    not cover exactly [2^bits] nodes. *)

val stale_slots : t -> alive:Failure.t -> int * int
(** [(stale, total)] over the buckets of the live nodes: [total] sums
    their capacities, [min k (2^(bits-level))] each, and [stale] counts
    their dead contacts plus the slots eviction left empty, since a
    missing contact is as useless to the router as a dead one.
    @raise Invalid_argument when [alive] does not cover exactly
    [2^bits] nodes. *)

val invariant_violation : t -> string option
(** [None] when every bucket satisfies the structural invariants
    (distinct entries, correct bucket placement, no self-contact,
    capacity and cache bounds); otherwise a description of the first
    violation found. Test hook: the structural check the churn and
    k-bucket tests run after every maintenance step. *)
