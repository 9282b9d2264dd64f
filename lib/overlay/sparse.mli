(** DHT overlays over *non-fully-populated* identifier spaces — the
    extension the paper's section 6 leaves as future work.

    [nodes] distinct identifiers are drawn uniformly from the 2^bits
    space; nodes are addressed by their index in the sorted id array.
    Constructions mirror the real sparse protocols: Chord fingers point
    at the clockwise successor of id + 2^i; Kademlia/Plaxton buckets
    draw a uniform occupied id from the matching prefix range (possibly
    [missing] when the range is empty); Symphony works on the circle of
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
    sorted ids, in C for the built-in geometries (and for the ids in
    the dense regime, [2 nodes >= 2^bits]), with the same draws in the
    same order as evaluating each contact in OCaml.
    @raise Invalid_argument when {!Rcm.Geometry.check_size} rejects
    [(bits, nodes, geometry)] (hypercube included), or for a custom
    geometry with no registered sparse builder. *)

type custom_builder =
  t -> Prng.Splitmix.t -> (string * int) list -> int * (int -> int -> int)
(** A plugin family's sparse construction, the shape of
    [Table.custom_builder]: called with the overlay's ids populated
    (no contacts yet — use the id/range accessors only), the build
    PRNG and the family parameters; returns the uniform degree and the
    entry function [(v, i) -> contact index], [missing] allowed. The
    entries are evaluated in {!Flat.init}'s order, [v] ascending then
    [i] ascending. *)

val register_custom_builder : family:string -> custom_builder -> unit
(** Registers the sparse contact builder of a custom family. Call at
    module-init time from the plugin library.
    @raise Invalid_argument if the family is already registered. *)

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
(** Half-open index range of nodes sharing the prefix of [pattern]. *)

