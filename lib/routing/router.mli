(** Geometry dispatch: route one message over any overlay under the
    paper's forwarding rules, against a per-trial failure pattern.

    {1 Routing model}

    Every router in this library implements the same abstract scheme
    (section 4.1 of the paper): the message holder inspects its routing
    table, discards dead contacts (those with [Failure.get alive u =
    false]), and
    forwards to a neighbour strictly closer to the destination in the
    geometry's own distance. The concrete distance differs per geometry
    — prefix depth (tree), Hamming distance (hypercube), XOR metric
    (Kademlia), clockwise ring distance (Chord/Symphony) — but the
    invariants below hold for all of them.

    {1 Invariants}

    - {b Greedy progress}: each hop strictly decreases the remaining
      distance to [dst]. No router ever forwards sideways or away from
      the destination, even when that would dodge a failed region.
    - {b No back-tracking}: a message is never returned to a previous
      holder. This needs no visited-set: strict progress already makes
      revisiting impossible.
    - {b Termination}: the distance is a non-negative integer that
      shrinks every hop, so routing always ends — either
      [Delivered {hops}] at [dst], or [Dropped {stuck_at; _}] at the
      first holder with no alive neighbour making progress. Loops
      cannot occur (see {!Outcome.metric_label}).
    - {b Failure-obliviousness}: the choice among alive candidates
      never looks past the current hop; there is no rerouting around
      failures known only downstream. This is what makes simulated
      routability comparable with the paper's analytical model.

    The five paper geometries dispatch to {!Tree_router} (3.1),
    {!Hypercube_router} (3.2), {!Xor_router} (3.3) and {!Greedy_ring}
    (Chord 3.4, Symphony 3.5), and ReCord to {!Record_router}.
    Ablation overlays use the specialised routers
    ({!Bidirectional_ring}, {!Bucket_router}, {!Digit_router},
    {!Sparse_router}, {!Torus_router}) directly. *)

val route :
  ?on_hop:(int -> unit) ->
  Overlay.Table.t ->
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** [route table ~rng ~alive ~src ~dst] forwards one message from [src]
    to [dst] with the router matching [table]'s geometry. [alive] is
    indexed by node id; [src] and [dst] are assumed alive (the
    simulation layer only samples pairs among survivors). [rng] is
    consumed only by geometries with a randomized forwarding choice
    (hypercube) — for the others it is accepted and ignored so callers
    can stay geometry-generic. [on_hop] is called with every node the
    message reaches after [src], including the final one.

    Works identically on every table layout: routers touch tables only
    through the {!Overlay.Table.neighbor} /
    {!Overlay.Table.iter_neighbors} accessors (plus space metadata), so
    rules, blocks and churn's rows route bit-identically.
    @raise Invalid_argument when [src] or [dst] is outside the space. *)

val route_with_path :
  Overlay.Table.t ->
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t * int list
(** As {!route}, also returning the full node path starting at [src].
    The path has [hops + 1] elements for a delivered message. *)
