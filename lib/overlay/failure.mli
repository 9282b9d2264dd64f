(** Static-resilience failure injection: every node fails independently
    with probability q, and routing tables are not repaired (section 1,
    footnote 1).

    An alive-mask is a packed {!Bitset} (one bit per node, off-heap),
    not a [bool array]: the batch routing kernel tests liveness with a
    single load + mask, the mask is shared read-only across domains
    with no GC traffic, and it is 32× smaller than the boxed
    representation at [2^20] nodes. {!to_bool_array} bridges callers
    that inspect plain arrays (the graph layer's component analysis).
    Sampling
    draws from the rng in the same order as the historical [bool
    array] implementation, so masks are bit-identical across the
    representation change. *)

module Bitset = Bitset

type t = Bitset.t
(** An alive-mask: node [v] is alive iff bit [v] is set. *)

val sample : rng:Prng.Splitmix.t -> q:float -> int -> t
(** [sample ~rng ~q n] is an alive-mask of [n] nodes; entry [v] is dead
    with probability [q], independently: exactly
    [not (Splitmix.bernoulli rng ~p:q)] per node, id ascending, and
    [rng] advances by [n] draws. A C loop computes the draws from the
    generator's counter and compares them as integers against
    [ceil(q·2^53)], which is exact, so it vectorises (AVX-512 or AVX2
    where the CPU has them) without changing a bit. *)

val sample_variants : (string * (rng:Prng.Splitmix.t -> q:float -> int -> t)) list
(** {!sample} once per compiled variant of its loop that this host can
    run, each called directly rather than picked per call:
    ["x86-64-v4"] and ["x86-64-v3"] (x86-64 GCC builds on CPUs with
    those levels), then ["default"]. Every one returns {!sample}'s
    mask. Test hook: [sample] runs only the best variant, so only this
    list lets [test_batch] check the others on this host. *)

val survivors : t -> int array
(** Ids of alive nodes, ascending, in a fresh array. Static trials
    draw through a {!Rank} index instead. *)

val length : t -> int
(** Number of nodes the mask covers (alive or dead). *)

val get : t -> int -> bool
(** [get mask v] is true iff node [v] is alive.
    @raise Invalid_argument outside [0, length). *)

val set : t -> int -> bool -> unit
(** Marks one node alive or dead.
    @raise Invalid_argument outside [0, length). *)

val none : int -> t
(** A mask with every node alive. *)

val to_bool_array : t -> bool array
(** Node [v] alive as entry [v] (for [bool array] consumers such as
    the component analysis of [Sim.Percolation]). *)

val sample_block : rng:Prng.Splitmix.t -> fraction:float -> int -> t
(** [sample_block ~rng ~fraction n] kills round(fraction * n) *contiguous*
    ids starting at a random offset (wrapping) — a correlated outage,
    in contrast to {!sample}'s independent failures. *)
