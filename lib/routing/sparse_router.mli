(** Routing over sparse overlays ({!Overlay.Sparse}).

    Identical forwarding rules to the fully-populated routers, with
    distances measured on identifiers and empty bucket slots skipped;
    ReCord's walk is {!Record_router.sparse_route}. *)

val walk_kind : Overlay.Sparse.t -> int
(** The overlay's walk in C ([sparse_walk.h]): 0 for Symphony's ring
    walk, 1 for the tree's prefix walk, 2 for xor's, 3 for the ring
    walk over Chord fingers; [-1] for ReCord, whose walk is
    {!Record_router.sparse_route}. The storage read loop takes it. *)

val route :
  ?on_hop:(int -> unit) ->
  Overlay.Sparse.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** [src], [dst] and the hops reported to [on_hop] are node *indexes*.
    The walks of the paper's geometries allocate only the returned
    outcome. Without [on_hop] or a loadmap sink, such a walk runs in C unless
    {!Route_batch.set_enabled} turned batching off; both walks take
    the same hops.
    @raise Invalid_argument when [src] or [dst] is not a node index or
    [alive] covers fewer nodes than the overlay, or on a hypercube
    overlay. *)
