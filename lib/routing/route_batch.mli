(** Batched routing kernel over flat overlay tables.

    Routes a whole pair set per call through monomorphic, per-geometry
    int loops, in C but for ReCord's ({!Record_router.block}): each entry is computed in registers from the table's
    rule (the built-in tree, hypercube, ring and xor tables; see
    {!Overlay.Table.layout}), loaded from an {!Overlay.Flat} block's
    [offsets]/[targets] Bigarrays (ReCord, the variant builders,
    {!Overlay.Table.flatten}), or, for a built Symphony table, computed
    for the successors and loaded from the shortcut column by a lane of
    its own, with packed-bitset liveness
    tests ({!Overlay.Bitset}) and reusable off-heap scratch buffers —
    zero allocation per hop, and 10–50× the scalar [Router.route]
    throughput at [bits = 20].

    {1 Bit-identity}

    For every geometry the kernel visits candidates in exactly the
    scalar router's order and consumes PRNG draws in exactly the
    scalar order, so outcomes, hop counts, stuck nodes and the
    post-batch [rng] state equal the scalar path's — the simulation
    layers switch between the two freely without changing a single
    published number. {!sample_and_route} additionally draws its
    pairs in C, draw-for-draw as the scalar trial loop does
    ([Stats.Sampler.ordered_indexes] mapped through
    {!Overlay.Rank.select}), so pair-sampling and hypercube forwarding
    draws interleave exactly as in that loop. Metrics are aggregated
    in scratch and flushed once per batch; the resulting [--metrics]
    totals are equal (not just close) to the scalar path's.

    {1 Load telemetry}

    When the calling domain has an {!Obs.Loadmap} sink installed
    ({!Obs.Loadmap.with_sink}), both drivers bump its per-node counters
    at exactly the scalar [Router] hook's counting points: one
    [Route_traversal] per accepted hop (every node the message reaches
    after the source, including the final one) and one
    [Route_termination] per pair, at the destination when delivered or
    at the stuck node when dropped — so batch and [--no-batch] per-node
    counts are exactly equal (pinned by [test/test_batch.ml]). The
    slices are passed to the C drivers as Bigarray pointers, one lookup
    per batch; without a sink the kernels receive zero-length buffers
    and skip counting on a NULL test. Both drivers raise
    [Invalid_argument] when a sink is installed whose node count
    differs from the routed table's.

    {1 Scope}

    Only rule and block tables are accepted: an
    {!Overlay.Table.of_neighbors} matrix must go through
    {!Overlay.Table.flatten} first, or stay on the scalar path — which
    churn/sparse overlays do, since their representations are mutable
    or not {!Overlay.Table}s. *)

type scratch
(** Reusable per-batch result buffers, the pair arrays of drawn
    batches, and outcome/hop-histogram accumulators. A scratch instance
    is single-domain state: share one per domain, never across
    domains. *)

val create_scratch : unit -> scratch

val route_many :
  ?scratch:scratch ->
  Overlay.Table.t ->
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  (int * int) array ->
  scratch
(** [route_many table ~rng ~alive pairs] routes every [(src, dst)]
    pair and returns the scratch holding per-pair outcomes ([scratch]
    defaults to the calling domain's own, created on first use; the
    return value is that same scratch, valid until the next batch run
    on it). [rng] is consumed
    by the hypercube kernel only, exactly as in the scalar router.
    @raise Invalid_argument if the table holds per-node rows, if
    the mask length differs from the node count, or a pair member is
    outside the id space. *)

val sample_and_route :
  ?scratch:scratch ->
  ?pool:int array ->
  ?survivors:Overlay.Rank.t ->
  Overlay.Table.t ->
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  pairs:int ->
  scratch
(** [sample_and_route table ~rng ~alive ~pairs] draws [pairs] ordered
    pairs of distinct survivors of [alive] and routes each as it is
    drawn — one kernel call per trial for the simulation layers. The
    draws are the scalar trial loop's, draw for draw: survivor indexes
    as [Stats.Sampler.ordered_indexes] draws them, mapped to node ids
    through {!Overlay.Rank.select}. No survivor list is built.

    [survivors] is [alive]'s rank index when the caller already has
    one ([Sim.Trial.run] does); without it the index is built here.
    [pool], a list of node ids, replaces the survivors as the source:
    pairs are drawn from it by index the same way, so
    [~pool:(Overlay.Failure.survivors alive)] gives exactly the pairs
    and generator state of the default. Its ids are checked as they
    are drawn, so pairs drawn before a bad one may already be routed.
    @raise Invalid_argument if the table holds per-node rows, the mask
    length mismatches, [pairs] is negative, [alive] has fewer than two
    survivors, [survivors] indexes another mask, [pool] has fewer than
    two members or is given with [survivors], or a drawn pool id is
    outside the table's node range. *)

(** {1 Reading results}

    Valid until the scratch is reused by a later batch. *)

val delivered_count : scratch -> int

val outcome : scratch -> int -> Outcome.t
(** Pair [k]'s outcome, reconstructed exactly as the scalar router
    would have returned it. *)

val hop_counts : scratch -> int array
(** The hop counts of the last batch's delivered pairs as a fresh
    histogram: entry [h] counts the pairs delivered in [h] hops, and
    the array is one longer than the largest such [h] ([[||]] when
    nothing was delivered). *)

val delivered_hops_rev_order : scratch -> float list
(** Delivered hop counts as floats, in routing order. *)

(** {1 Kernel variants} *)

type variant = {
  route_many :
    Overlay.Table.t -> rng:Prng.Splitmix.t -> alive:Overlay.Failure.t -> (int * int) array -> scratch;
  sample_and_route :
    ?pool:int array ->
    Overlay.Table.t ->
    rng:Prng.Splitmix.t ->
    alive:Overlay.Failure.t ->
    pairs:int ->
    scratch;
}
(** {!route_many} and {!sample_and_route} on one variant of the C
    kernel, each call on a fresh scratch. *)

val variants : (string * variant) list
(** The kernel variants this host runs, each called directly rather
    than picked per call: ["x86-64-v4"] (x86-64 GCC builds on CPUs
    with that level), where the tree, xor and ring rule tables and
    Symphony's shortcut column route through AVX-512 lanes and pairs
    are drawn with a PDEP select, then ["default"], the portable lanes
    and draw every CPU runs. Both give
    the same outcomes, loadmap counts and generator state. Test hook:
    {!route_many} and {!sample_and_route} run only the best variant,
    so only this list lets [test_batch] check the others against it
    on this host. *)

(** {1 Enabling}

    The simulation layers consult this switch to decide between the
    batch kernel and the scalar loop (the kernel itself always runs
    when called directly). Default: enabled. The CLI exposes
    [--no-batch] for byte-identity checks against the scalar path. *)

val set_enabled : bool -> unit

val enabled : unit -> bool
