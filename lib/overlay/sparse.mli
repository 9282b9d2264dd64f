(** DHT overlays over *non-fully-populated* identifier spaces — the
    extension the paper's section 6 leaves as future work.

    [nodes] distinct identifiers are drawn uniformly from the 2^bits
    space; nodes are addressed by their index in the sorted id array.
    Constructions mirror the real sparse protocols: Chord fingers point
    at the clockwise successor of id + 2^i; Kademlia/Plaxton buckets
    draw a uniform occupied id from the matching prefix range (possibly
    [missing] when the range is empty), and ReCord one per digit
    subtree; Symphony works on the circle of
    occupied positions. CAN is excluded: its sparse form is a
    zone partition, not an id subset.

    Contacts are stored as one uniform-degree {!Flat} block of node
    indexes, [missing] marking an empty bucket; the block stays inside
    [t], so no [missing] entry reaches the batch routing kernel. *)

type t

val missing : int
(** Sentinel (-1) for an empty bucket slot. *)

val build :
  ?rng:Prng.Splitmix.t -> bits:int -> nodes:int -> Rcm.Geometry.t -> t
(** Draws the ids, then fills the contacts in linear passes over the
    sorted ids, in C for the paper's geometries (and for the ids in
    the dense regime, [2 nodes >= 2^bits]), with the same draws in the
    same order as evaluating each contact in OCaml, as ReCord's are.
    @raise Invalid_argument when {!Rcm.Geometry.check_size} rejects
    [(bits, nodes, geometry)] (hypercube included). *)

val bits : t -> int
val geometry : t -> Rcm.Geometry.t
val node_count : t -> int

val id_of : t -> int -> int
(** The identifier of a node index. *)

val ids : t -> int array
(** The sorted id array itself ([id_of t v] is its entry [v]),
    read-only by convention: it is shared with every caller and the
    routers, so writing through it corrupts the overlay. *)

val degree : t -> int
(** The contact count of every node. *)

val targets : t -> Flat.targets
(** The contact block, read-only by convention like {!Flat.targets}:
    entry [i] of node [v] is [targets.{v * degree t + i}], a node index
    or [missing]. The sparse routers index it directly, once per
    candidate, instead of calling an accessor. *)

val successor_index : t -> int -> int
(** Index of the first node clockwise from an id (inclusive, with
    wraparound). *)

val lower_bound_within : t -> lo:int -> hi:int -> int -> int
(** The first index in [\[lo, hi)] whose id is >= the target; [hi]
    when none. Allocates nothing.
    @raise Invalid_argument unless [0 <= lo <= hi <= node_count]. *)

val prefix_range : t -> pattern:int -> prefix_len:int -> int * int
(** Half-open index range of nodes sharing the prefix of [pattern].
    Test hook: only {!build}'s ReCord entries call it, inside this
    module, so only this export lets [test_sparse] check the ranges
    directly. *)

