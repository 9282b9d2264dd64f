(** Concrete neighbour tables for the DHT geometries over a
    fully-populated [2^bits] identifier space (the simulation
    counterpart of the analytical model).

    {1 Layout}

    Neighbour-array layout per geometry:
    - tree / hypercube / xor: index [i] holds the level-[(i+1)]
      neighbour (the one differing on bit [i+1], counting from the MSB);
    - ring: index [i] holds finger [i], at clockwise distance in
      [[2^i, 2^(i+1))];
    - symphony [(k_n, k_s)]: indices [0..k_n-1] are the clockwise near
      neighbours, the rest are harmonic-distance shortcuts;
    - record [h]: see {!record_entry}.

    {1 Representation}

    Every table that {!build} and the variant builders return is flat:
    immutable, and shared read-only across [Exec.Pool] domains with
    zero copying. The builtin tree, hypercube, ring and xor tables
    follow a closed form, so {!build} stores that {!rule} (a few words)
    and every read computes the entry. A Symphony table computes its
    near neighbours and stores only its drawn shortcuts, in one int32
    column ({!layout}'s [Shortcuts]). Every other table is a single
    {!Flat.t} struct-of-arrays block (CSR over Bigarrays). Per-node rows
    exist only behind {!of_neighbors}: churn's mutable matrix, which it
    repairs in place.

    Randomized builders draw for node [v] ascending, then entry [i]
    ascending, and a rule or a column advances the generator past the
    draws it stands for. A table and the post-build generator state are
    therefore those of evaluating the entry functions row by row, which
    the [flat] test suite checks against reference rows.

    Per-trial node failures never modify a table: they are sampled
    into a packed alive-bitset (see {!Failure}) and overlaid at routing
    time by the routers. *)

type t

type backend = Flat
(** The one physical representation. It selects nothing: it remains
    only for the ignored [?backend] arguments of {!Table_cache.get} and
    [Sim.Estimate.run_sweep], which the benchmark harness in
    [perfbench/] still passes. *)

val build : ?rng:Prng.Splitmix.t -> bits:int -> Rcm.Geometry.t -> t
(** Builds the overlay. Randomized constructions (xor bucket suffixes,
    symphony shortcuts, record suffixes) draw from [rng]; ring fingers
    are the classic deterministic Chord fingers at distance [2^i].
    @raise Invalid_argument when {!Rcm.Geometry.check_size} rejects
    [(bits, geometry)]. *)

val record_entry : bits:int -> group:int -> Prng.Splitmix.t -> int -> int -> int
(** [record_entry ~bits ~group rng v i] is entry [i] of node [v] in a
    ReCord table over base-[2^group] digits, drawing its suffix from
    [rng]: with [b = 2^group], slot [i] is digit level
    [i / (b - 1) + 1] (most significant first) and rank
    [i mod (b - 1) + 1], and the entry keeps [v]'s digits above that
    level, holds [v]'s digit plus the rank (mod [b]) at it, and takes
    its lower-order bits from one [Prng.Splitmix.int rng 2^bits] draw.
    {!build} evaluates it row by row into a block; churn redraws a
    slot with it. At [group = 1] it is the xor entry, draw for draw. *)

val of_neighbors : bits:int -> Rcm.Geometry.t -> int array array -> t
(** Wraps an externally managed neighbour matrix {e without copying}:
    later in-place mutation of the rows is visible to routing. Used by
    the churn simulator, whose repair process rewrites rows. It is the
    only table with per-node rows — a mutable overlay must not be
    flattened into a shared read-only block.
    @raise Invalid_argument on a wrong row count or out-of-space id. *)

val flatten : t -> t
(** [flatten t] copies an {!of_neighbors} matrix into a block, and is
    the identity on any other table. The result does not alias [t]'s
    rows, so subsequent mutation of the matrix is not reflected.
    Test hook: the only way [test_batch] can store a rule table's entries
    as a block, to check the lanes that compute a rule against the
    lanes that load a block. *)

val build_ring_with_successors : bits:int -> successors:int -> unit -> t
(** Chord fingers plus an extra [successors]-entry successor list
    (clockwise distances 2 .. successors+1; distance 1 is already
    finger 0). The greedy router uses them as fallback hops — the
    "additional sequential neighbors" knob of the paper's
    introduction. *)

val build_randomized_ring : ?rng:Prng.Splitmix.t -> bits:int -> unit -> t
(** Ablation variant: Chord fingers drawn uniformly from distance
    [[2^i, 2^(i+1))] — the randomized construction the analysis section
    describes. Slightly less routable near the destination because the
    top finger can overshoot. *)

val build_symphony_bidirectional :
  ?rng:Prng.Splitmix.t -> bits:int -> k_n:int -> k_s:int -> unit -> t
(** The deployed Symphony: near neighbours on both sides and shortcuts
    usable from either endpoint (links are undirected, so nodes also
    route over incoming shortcuts). Mean degree [2 (k_n + k_s)]. Route
    it with [Routing.Bidirectional_ring], not the clockwise router. *)

val build_deterministic_xor : bits:int -> unit -> t
(** Ablation variant: Kademlia bucket contacts with preserved suffixes
    (the level-i contact differs in bit i only). Realises the Fig. 5(b)
    Markov chain exactly. *)

val space : t -> Idspace.Space.t
val geometry : t -> Rcm.Geometry.t

(** The closed forms of the builtin flat tables, with [2^bits] nodes of
    degree [bits], entry [i] of node [v] being:
    - [Flip]: [v lxor 2^(bits-1-i)] (tree, hypercube);
    - [Finger]: [(v + 2^i) mod 2^bits] (ring);
    - [Flip_suffix state]: the [Flip] entry with its [bits-1-i] low
      bits taken from draw [v * bits + i] of the generator
      [Prng.Splitmix.of_int64 state], the build generator before its
      draws (xor). *)
type rule = Flip | Finger | Flip_suffix of int64

(** How a flat table holds its entries:
    - [Block]: every entry stored, in a CSR block;
    - [Rule]: every entry computed from a {!rule};
    - [Shortcuts]: {!build}'s Symphony table, of degree [k_n + k_s]
      over [2^bits] nodes. Entry [i < k_n] of node [v] is its
      [(i + 1)]-th successor [(v + i + 1) mod 2^bits], computed;
      entry [k_n + j] is shortcut [j], stored at [column.{v * k_s + j}]
      ([2^bits * k_s] int32 entries, no offsets). That entry was drawn
      at draw [v * k_s + j] of the build generator. *)
type layout =
  | Block of Flat.t
  | Rule of rule
  | Shortcuts of { k_n : int; k_s : int; column : Flat.targets }

val layout : t -> layout option
(** [None] for {!of_neighbors} rows. The batch routing kernel hands a
    block's arrays, the rule or the shortcut column to its lanes. *)

val node_count : t -> int
val bits : t -> int

val memory_bytes : t -> int
(** Approximate resident size of the adjacency payload: exact Bigarray
    bytes for a block, [0] for a rule, the column's [4 * 2^bits * k_s]
    bytes for a Symphony table (its near neighbours are computed);
    header-word accounting (8-byte words) for {!of_neighbors} rows. GC
    bookkeeping is not included. *)

val neighbors : t -> int -> int array
(** The neighbour array of a node. For an {!of_neighbors} table this is
    the live row ({e not} a copy); for any other table it is a fresh
    copy. Hot paths should prefer {!neighbor}/{!iter_neighbors}, which
    never allocate. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v i] is entry [i] of [v]'s table. On a rule table it
    computes the entry without allocating.
    @raise Invalid_argument unless [0 <= v < node_count t] and
    [0 <= i < degree t v]. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Applies a function to each entry of [v]'s table, in table order
    (the order routers scan). *)
