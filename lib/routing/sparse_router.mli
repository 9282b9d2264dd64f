(** Routing over sparse overlays ({!Overlay.Sparse}).

    Identical forwarding rules to the fully-populated routers, with
    distances measured on identifiers and empty bucket slots skipped. *)

type custom_router =
  ?on_hop:(int -> unit) ->
  Overlay.Sparse.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** A plugin family's raw forwarding walk over a sparse overlay. Same
    contract as {!Router.custom_router} — uphold the routing
    invariants, call [on_hop] per accepted hop, skip
    [Overlay.Sparse.missing] slots, and record no telemetry ({!route}
    layers the loadmap accounting on). *)

val register_custom : family:string -> custom_router -> unit
(** Registers the sparse-overlay router of a custom family (used by
    the session-churn engine and storage layers). Call at module-init
    time from the plugin library.
    @raise Invalid_argument if the family is already registered. *)

val walk_kind : Overlay.Sparse.t -> int
(** The overlay's walk in C ([sparse_walk.h]): 0 for Symphony's ring
    walk, 1 for the tree's prefix walk, 2 for xor's, 3 for the ring
    walk over Chord fingers; [-1] for a family with no C walk. The
    storage read loop takes it. *)

val route :
  ?on_hop:(int -> unit) ->
  Overlay.Sparse.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** [src], [dst] and the hops reported to [on_hop] are node *indexes*.
    The built-in walks allocate only the returned outcome. Without
    [on_hop] or a loadmap sink, a built-in walk runs in C unless
    {!Route_batch.set_enabled} turned batching off; both walks take
    the same hops.
    @raise Invalid_argument when [src] or [dst] is not a node index or
    [alive] covers fewer nodes than the overlay, on a hypercube
    overlay, or on a custom geometry whose family has no registered
    sparse router. *)
