(** Flat struct-of-arrays neighbour storage (compressed sparse rows).

    A flat block stores an entire overlay's adjacency in two contiguous
    Bigarrays — [offsets] (one [int] per node, plus a sentinel) and
    [targets] (one [int32] per edge, row-major) — instead of one heap
    array per node. Consequences that the rest of the tree relies on:

    - {b Zero-copy sharing.} Bigarray payloads live outside the OCaml
      heap, so a block built once is read concurrently by every domain
      of an {!Exec.Pool} without copying and without adding GC scanning
      work. Per-trial failures never touch the block: they are an
      alive-bitset ({!Failure.t}) overlaid at routing time.
    - {b Compactness.} 4 bytes per edge + 8 per node, about half of
      per-node rows' word-size entries and headers, which is what makes
      2^20–2^22-node sweeps of ReCord and variant tables fit in memory.
      The paper's tables need no block at all: {!Table} stores the closed-form rule
      of tree, hypercube, ring and xor, and Symphony's shortcuts alone,
      in one {!targets} column.
    - {b Immutability by convention.} Nothing in this module mutates a
      block after construction. {!offsets} and {!targets} expose the
      underlying Bigarrays read-only so the batch routing kernel
      ({!Routing.Route_batch}) can index rows directly; callers must
      never write through them — a shared block that one domain mutates
      would race every other domain. Overlays that need in-place repair
      (churn) keep per-node rows via {!Table.of_neighbors}.

    Node ids fit [int32] because {!Idspace.Space.max_bits} is 30. Blocks
    are usually built and consumed through {!Table} rather than
    directly. *)

type t

type offsets = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Edge offsets, one per node plus a sentinel: node [v]'s row is
    [targets.{offsets.{v} .. offsets.{v+1} - 1}]. *)

type targets = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Neighbour ids, row-major. *)

val init : ?allow_missing:bool -> nodes:int -> degree:int -> (int -> int -> int) -> t
(** [init ~nodes ~degree f] builds a uniform-degree block whose entry
    [(v, i)] is [f v i]. [f] is evaluated for [v] ascending and, within
    each node, [i] ascending — the order of
    [Array.init nodes (fun v -> Array.init degree (f v))], so a PRNG
    threaded through [f] ends where building those rows would leave it
    (the contract of {!Table.build}).
    [allow_missing] (default [false]) also admits [-1], the empty
    bucket of a sparse overlay; only {!Sparse.build} passes it, and the
    block stays inside its {!Sparse.t}, so the routing kernels, which
    take {!Table} blocks, never see a [-1].
    @raise Invalid_argument if a produced id falls outside [0, nodes)
    (and is not an admitted [-1]). *)

val create_targets : int -> targets
(** [create_targets length] is a fresh, unfilled targets array, advised
    for huge pages as a block's payloads are: the storage of a table
    layout that fills its own entries ({!Table}'s Symphony shortcut
    column). *)

val of_targets : nodes:int -> degree:int -> targets -> t
(** [of_targets ~nodes ~degree targets] is the uniform-degree block
    whose entry [(v, i)] is [targets.{v * degree + i}], taking the
    array as it is, unchecked and uncopied: the layout of a builder
    that fills its entries in C ({!Sparse.build}). Entries must lie in
    [[0, nodes)], or be [-1] in a sparse overlay's block.
    @raise Invalid_argument if the array's length is not
    [nodes * degree]. *)

val of_rows : int array array -> t
(** Copies a per-node adjacency into a flat block (supports
    variable-degree rows, e.g. the bidirectional Symphony overlay).
    Later mutation of [rows] is {e not} reflected in the block.
    @raise Invalid_argument if an entry falls outside the node range. *)

val degree : t -> int -> int
(** [degree t v] is the number of neighbours of [v]. *)

val neighbor : t -> int -> int -> int
(** [neighbor t v i] is entry [i] of [v]'s row.
    @raise Invalid_argument unless [0 <= v < node_count t] and
    [0 <= i < degree t v]. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Applies [f] to [v]'s neighbours in table order. *)

val row : t -> int -> int array
(** [row t v] is a fresh copy of [v]'s row (mutating it does not affect
    the block). *)

val memory_bytes : t -> int
(** Bigarray payload size in bytes: [8 * (nodes + 1) + 4 * edges]. *)

val offsets : t -> offsets
(** The offsets Bigarray, read-only by convention (see above). *)

val targets : t -> targets
(** The targets Bigarray, read-only by convention (see above). *)

val uniform_degree : t -> int
(** The degree shared by every row, or [-1] when rows differ (or the
    block is empty). When non-negative, row [v] starts at
    [v * uniform_degree] — the batch routing kernels use this to skip
    the offsets indirection on every hop. *)
