(** Kademlia-style k-bucket tables: the level-i bucket of node v holds
    up to k distinct contacts matching v's first i-1 bits and differing
    on bit i (fewer when the identifier space has fewer candidates —
    deep buckets are inherently small).

    Buckets carry the maintenance discipline of real Kademlia
    implementations: contacts stay in least-recently-seen order (head
    at index 0, most recently seen at the tail), {!ping_evict} applies
    ping-before-evict to the head, and each bucket keeps a bounded
    replacement cache whose most-recently-seen entry is promoted when a
    dead head is evicted.

    Contacts and caches live in flat [int] arrays, one fixed run of
    slots per bucket, so maintenance rotates, evicts and promotes in
    place, one [int] store at a time (an [Array.blit] into these
    major-heap arrays would pass every element through the write
    barrier), and scans compare [int]s in a loop: {!observe},
    {!maintain} and {!rebuild_bucket} allocate nothing, and
    {!ping_evict} only its result. A caller on a hot path should build
    its [alive] predicate, and the option {!rebuild_bucket} takes, once
    rather than per call.

    Used by the replication experiments (A5) and the churn simulators;
    the basic single-contact tables live in {!Table}. *)

type t

type maintenance =
  | No_contact  (** The bucket is empty. *)
  | Refreshed of int  (** Live head, moved to the tail. *)
  | Evicted of { dead : int; promoted : int option }
      (** Dead head evicted; [promoted] is the replacement-cache entry
          appended at the tail, if the cache had one. *)

val build :
  ?rng:Prng.Splitmix.t -> ?cache_k:int -> bits:int -> k:int -> unit -> t
(** [cache_k] bounds each bucket's replacement cache (default [0]: no
    cache, matching the static experiments).
    @raise Invalid_argument when [k < 1] or [cache_k < 0]. *)

val space : t -> Idspace.Space.t
val bits : t -> int
val node_count : t -> int
val k : t -> int
val cache_k : t -> int

val capacity : t -> level:int -> int
(** [min k (2^(bits-level))] — the candidate-set bound on bucket size. *)

val length : t -> int -> int -> int
(** [length t v level] is the number of contacts in [v]'s bucket for
    bit [level] — [Array.length (bucket t v level)] without the copy.
    @raise Invalid_argument when [v] is outside [0 .. 2^bits - 1] or
    the level outside 1..bits. *)

val contact : t -> int -> int -> int -> int
(** [contact t v level i] is the [i]-th contact of that bucket,
    least-recently-seen first — [(bucket t v level).(i)] without the
    copy. Together with {!length} it is the allocation-free read path
    for routing and staleness scans; the value is read at call time, so
    a later {!observe}/{!ping_evict}/{!rebuild_bucket} is seen by the
    next call.
    @raise Invalid_argument when [v], [level] or [i] is out of range. *)

val bucket : t -> int -> int -> int array
(** [bucket t v level] is a copy of the contacts of [v]'s bucket for
    bit [level] (1-based from the MSB), least-recently-seen first.
    Mutating the returned array cannot affect the table.
    @raise Invalid_argument when [v] or the level is out of range. *)

val cache : t -> int -> int -> int array
(** A copy of the bucket's replacement cache, oldest first.
    @raise Invalid_argument when [v] or the level is out of range. *)

val observe : t -> int -> int -> unit
(** [observe t v id] records that [v] heard from [id]: an existing
    contact moves to the tail; a new contact is appended when the
    bucket has room; otherwise it enters the replacement cache (whose
    oldest entry is dropped beyond [cache_k]). No-op when [v = id].
    @raise Invalid_argument when [v] or [id] is outside
    [0 .. 2^bits - 1]. *)

val ping_evict : t -> int -> level:int -> alive:(int -> bool) -> maintenance
(** One ping-before-evict step on the bucket head: a live head is
    refreshed to the tail; a dead head is evicted and the cache's
    most-recently-seen entry promoted in its place.
    @raise Invalid_argument when [v] or the level is out of range. *)

val maintain : t -> int -> alive:(int -> bool) -> unit
(** One {!ping_evict} pass over every bucket of node [v].
    @raise Invalid_argument when [v] is out of range. *)

val rebuild_bucket :
  ?alive:(int -> bool) -> t -> Prng.Splitmix.t -> int -> level:int -> unit
(** Redraws one bucket — a routing-table repair action under churn —
    and clears its replacement cache. With [?alive], each draw retries
    a dead candidate up to 8 times, preferring live contacts. A suffix
    already drawn is redrawn without counting as a retry, so the draws
    match {!build}'s for the same generator state.
    @raise Invalid_argument when [v] or the level is out of range. *)

val iter_contacts : t -> int -> (int -> unit) -> unit
(** Iterates over every contact of a node, all buckets in level order
    (caches excluded). [f] may update other nodes' buckets but not
    [v]'s own.
    @raise Invalid_argument when [v] is out of range. *)

val invariant_violation : t -> string option
(** [None] when every bucket satisfies the structural invariants
    (distinct entries, correct bucket placement, no self-contact,
    capacity and cache bounds); otherwise a description of the first
    violation found. For tests. *)
