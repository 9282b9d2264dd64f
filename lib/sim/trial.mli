(** One static-resilience trial (section 1), shared by every static
    experiment: on a failed overlay, draw ordered pairs of survivors,
    route each without back-tracking and tally the deliveries, their
    hop counts as a histogram. A trial's result therefore has the same
    size at any pair count, and trials combine by adding integers, in
    any order. Also the
    per-index seed derivation that goes with it (DESIGN.md,
    "Determinism under parallelism"); {!Sweep} fans trials out. *)

type t = Checkpoint.trial = {
  delivered : int;
  attempted : int;
  alive_fraction : float;  (** survivors over the nodes the mask covers *)
  hop_counts : int array;
      (** [hop_counts.(h)] delivered pairs took [h] hops; one longer
          than the largest such [h], [[||]] when none was delivered.
          Its size depends on the hops, not on [pairs]. *)
}

val run :
  ?table:Overlay.Table.t ->
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  pairs:int ->
  (int -> int -> Routing.Outcome.t) ->
  t
(** [run ~rng ~alive ~pairs route] draws [pairs] ordered pairs of
    distinct survivors of [alive] and routes each, as it is drawn, with
    [route src dst]. A pair is two survivor indexes drawn by
    {!Stats.Sampler.ordered_indexes}, mapped to node ids through an
    {!Overlay.Rank} index of [alive]: the pairs
    {!Stats.Sampler.ordered_pair} draws from
    [Overlay.Failure.survivors alive], without building that list. The
    index is the trial's only allocation that grows with the node
    count: N/4 bytes, the mask's own size. With fewer than two
    survivors it attempts nothing and draws nothing.

    When [table] is a rule or a block (any table but an
    {!Overlay.Table.of_neighbors} matrix) and
    {!Routing.Route_batch.enabled}, the
    pairs go through {!Routing.Route_batch.sample_and_route} instead,
    which draws and routes them identically (generator state included)
    and bins the hops as it tallies; [route] must then be [table]'s
    scalar router.
    @raise Invalid_argument if [pairs < 1]. *)

val routability : t list -> float
(** Delivered over attempted, pooled over the trials; [nan] when no
    trial attempted a pair. *)

val seeds : seed:int -> trials:int -> int64 array
(** [(seeds ~seed ~trials).(i)] seeds trial [i]: the [i]-th output of
    the master stream [Splitmix.create ~seed], derived by index, so
    trials run on any domain in any order with the same draws. *)

val table :
  ?cache:Overlay.Table_cache.t ->
  bits:int ->
  Rcm.Geometry.t ->
  int64 ->
  Overlay.Table.t * Prng.Splitmix.t
(** [table ~bits geometry seed] is the trial's overlay and its
    generator after the build: built on [Splitmix.of_int64 seed] under
    an [overlay/build] span, or taken from [cache] with the resumed
    generator, so the draws that follow are the same either way. *)

val repeat : seed:int -> trials:int -> (Prng.Splitmix.t -> 'a) -> 'a list
(** [repeat ~seed ~trials f] runs [f] on each trial's generator
    [Splitmix.of_int64 (seeds ~seed ~trials).(i)], in index order. *)
