(** A replicated key store over a sparse overlay: quorum reads through
    the router, graceful degradation below quorum, and read-repair.

    [create] samples a key population, places [r] replicas per key with
    {!Placement}, and snapshots that initial placement. {!read} draws a
    key by Zipf popularity, probes its current holders in placement
    order by routing client → holder, and classifies the result with
    {!Quorum.classify}. Probed holders found dead are re-replicated
    onto the next placement candidates (read-repair), mutating the
    {e current} holder set; the {e initial} snapshot is immutable so
    {!surviving_keys} stays an exact Binomial(r, 1-q) observable — the
    quantity Leslie's closed form ({!Rcm.Data_availability}) predicts.

    Determinism: a call to {!read} consumes exactly one uniform draw
    (the Zipf rank); routing and repair consume none. {!read_batch}
    draws a client, then calls {!read}, so each of its reads consumes
    two. All bookkeeping (per-node load counters, holder mutation) is
    sequential, so a trial replays bit-identically from its seed. *)

type t

val create :
  ?zipf_s:float ->
  keys:int ->
  quorum:Quorum.t ->
  rng:Prng.Splitmix.t ->
  Overlay.Sparse.t ->
  t
(** [create ~keys ~quorum ~rng overlay] samples [keys] identifiers
    uniformly from the overlay's space and places [quorum.r] replicas
    each. [zipf_s] (default 0.8) is the key-popularity exponent; ranks
    follow key-slot order, so slot 0 is the hottest key.
    @raise Invalid_argument if [keys < 1] or [quorum.r] exceeds the
    node count. *)

val holders : t -> int -> int array
(** Current holder set of key slot [k] (a copy), in placement-rank
    order; mutated by read-repair. Test hook: reads show a repair only
    by its effect on later reads, and [test_storage] checks the
    repaired holder set itself. *)

val initial_holders : t -> int -> int array
(** The immutable initial placement of key slot [k] (a copy).
    Test hook: the placement [test_storage] compares {!holders} against. *)

val loads : t -> int array
(** Per-node count of reads served (a copy): node [v]'s entry grows by
    one each time a probe reaches [v] and it returns data. *)

val load_stats : int array -> int * float * int
(** [load_stats loads] is the max, the mean and the 99th percentile
    (the entry at rank [ceil (0.99 n) - 1] of the sorted array) of
    non-negative per-node loads, from one counting pass; [(0, nan, 0)]
    for an empty array. *)

val surviving_keys : t -> alive:Overlay.Failure.t -> quorum:int -> int
(** Number of key slots whose {e initial} holder set has at least
    [quorum] alive members — the replica-survival observable. *)

type read_stats = {
  outcome : Quorum.read_outcome;
  reached : int;  (** holders that returned data *)
  probes : int;  (** holders contacted (local or routed) *)
  probe_routes : int;  (** non-local route attempts while probing *)
  repair_routes : int;  (** route attempts made installing repairs *)
  repair_transfers : int;  (** replicas successfully re-installed *)
}

val read : t -> rng:Prng.Splitmix.t -> alive:Overlay.Failure.t -> client:int -> read_stats
(** One read from node [client] (which must be alive): draw a key by
    popularity, probe its holders in placement order until [rq] have
    answered or all have been tried, then repair. A holder answers if
    it is alive and the route from the client delivers (the client
    itself answers locally). Probed holders that are {e dead} trigger
    read-repair when at least one holder answered: the first responder
    re-replicates onto the next placement candidates, each attempt
    costing one route, until the slot is filled or four candidates
    failed. Alive-but-unreachable
    holders are left alone — the data is not lost, so re-replication
    would create spurious copies.

    Metering (when {!Obs.Metrics} is enabled): [storage/reads],
    [storage/quorum_reads], [storage/degraded_reads],
    [storage/failed_reads], [storage/probe_routes],
    [storage/repair_routes], [storage/repair_transfers]. *)

(** {1 Batched reads} *)

type tally = {
  mutable attempted : int;  (** reads issued (each needs an alive client) *)
  mutable quorum_reads : int;
  mutable degraded_reads : int;
  mutable failed_reads : int;
  mutable no_client : int;  (** reads skipped because no node was alive *)
  mutable probe_routes : int;
  mutable repair_routes : int;
  mutable repair_transfers : int;
}
(** The running totals of a simulation's reads: {!read_batch} adds to
    them, and [Failure_sim] and [Churn_sim] report them. *)

val tally : unit -> tally
(** A tally at zero. *)

val availability : tally -> float option
(** [quorum_reads / attempted]; [None] when nothing was attempted —
    never fabricated as 0. *)

val read_batch : t -> rng:Prng.Splitmix.t -> rank:Overlay.Rank.t -> tally -> int -> unit
(** [read_batch t ~rng ~rank tally count] issues [count] reads, each
    from a client drawn uniformly over the members of [rank]'s mask
    ([Overlay.Rank.select rank (Prng.Splitmix.int rng (Rank.count
    rank))]) against that mask, and adds them to [tally]. With no
    member, the reads count as [no_client] and nothing is drawn.

    The reads run in one C loop, which hands back to OCaml only to
    repair after a read that found a dead holder and a responder. The
    loop and the [read] loop draw, route, count and repair alike; the
    [read] loop runs instead, as the reference, when
    [Routing.Route_batch] is disabled, when a loadmap sink is installed
    (whose per-node counts only [read] and the OCaml walks record), or
    for a custom family. Metering: the {!read} counters, added once
    per call on the C path.
    @raise Invalid_argument if [count < 0] or the mask's length is not
    the node count. *)
