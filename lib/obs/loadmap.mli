(** Off-heap per-node load counters across the routing and storage
    planes.

    The paper's framework predicts {e aggregate} routability and hop
    counts; this module measures {e where} the traffic lands. A loadmap
    holds four counters per node — route traversals, route
    terminations, storage reads served, repairs absorbed — in one int
    Bigarray, laid out kind-major so each kind's counters form a
    contiguous slice that the batched C routing kernel can bump
    directly and the report layer ({!Loadmap_report}) can scan without
    copying.

    {b Determinism.} Counters are plain ints and a merge is elementwise
    integer addition, which commutes: per-task shards merged in task
    index order produce bit-identical totals at any [--jobs] count, and
    the batch kernel counts the same accepted hops as the scalar
    routers (pinned by [test/test_batch.ml]).

    {b Gating.} Recording is off unless a sink is installed
    ({!with_sink}); the disabled fast path of {!note} is one atomic
    load, the same discipline as {!Metrics}/{!Trace}/{!Progress}.
    Instrumentation is observation-only: it never touches a PRNG, so
    simulated numbers are byte-identical with the loadmap on or off. *)

type kind =
  | Route_traversal  (** the message reached this node as a forwarding hop *)
  | Route_termination  (** a route ended here: delivery, or stuck while dropped *)
  | Storage_read  (** this replica holder served a successful read probe *)
  | Repair  (** this node absorbed a re-replicated copy during repair *)

val all_kinds : kind list
(** In layout order: traversals, terminations, storage reads, repairs. *)

val kind_name : kind -> string
(** Snake-case label used in CSV headers, JSON keys and metric names. *)

type counts = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t
(** A loadmap instance: [kind_count * nodes] off-heap counters. Not
    thread-safe — each domain records into its own shard and shards are
    combined with {!merge_into}. *)

val create : nodes:int -> t
(** Fresh all-zero loadmap. @raise Invalid_argument when [nodes <= 0]. *)

val nodes : t -> int

val record : t -> kind -> int -> unit
(** Bump one counter (bounds-checked). *)

val slice : t -> kind -> counts
(** Zero-copy view of one kind's [nodes] counters — what the batch
    kernel accumulates into. Writes through the slice are writes to
    [t]. *)

val counts : t -> kind -> int array
(** Copy of one kind's counters as a heap array. *)

val merge_into : dst:t -> t -> unit
(** Elementwise [dst += t]. Integer addition commutes, so merging any
    permutation of the same shards yields identical bytes; callers
    still merge in task-index order by convention.
    @raise Invalid_argument on a node-count mismatch. *)

(** {1 The process-wide sink}

    Instrumented code ({!Routing.Router}, the batch kernel,
    {!Storage.Store}) records into whatever sink the current task
    installed for its domain; with no sink installed anywhere, every
    {!note} is one atomic load. *)

val sink : unit -> t option
(** The calling domain's installed sink, if any. Hot paths that bump
    several counters (or hand {!slice}s to the kernel) look the sink up
    once instead of paying {!note}'s lookup per counter. *)

val with_sink : t -> (unit -> 'a) -> 'a
(** [with_sink t f] makes [t] the calling domain's sink for the
    duration of [f] (restoring any previously installed sink after,
    also on exceptions). Scopes nest; the innermost wins. *)

val note : kind -> int -> unit
(** Bump one counter in the calling domain's sink; no-op without one. *)

(** {1 Persistence}

    One CSV, one row per node:
    [node,traversals,terminations,storage_reads,repairs]. The format is
    a function of the counters alone, so a run that is bit-identical
    across [--jobs] persists byte-identical files. *)

val save : t -> string -> unit
(** Write the CSV atomically via {!Atomic_file}. *)

exception Corrupt of string

val load : string -> t
(** Read a {!save}d loadmap back. Test hook: nothing in the system
    reads a loadmap back; [test_loadmap] round-trips {!save} through
    this reader and checks that it refuses corrupt files.
    @raise Corrupt on a malformed file. *)
