(** Session-based steady-state churn: the dynamic setting the paper
    leaves "currently under study", simulated to a steady state and
    bridged back to the static model.

    Nodes alternate sessions and gaps drawn from configurable
    {!Lifetime} distributions (exponential, Pareto, Weibull), driven by
    {!Event_queue}. The xor geometry runs real Kademlia maintenance on
    {!Overlay.Kbucket} tables: least-recently-seen bucket order,
    ping-before-evict on a schedule, a bounded replacement cache
    promoted on eviction, alive-preferring bucket rebuilds plus a
    self-announce on rejoin, and rotating bucket refreshes. The other
    geometries get their natural analogues — symphony redraws dead
    shortcuts and record dead slots; ring fingers and tree/hypercube bit-links are
    deterministic, so re-binding on rejoin is to the same identifier
    and a stale entry heals exactly when its target returns.

    Each measurement pairs the simulated routability with the static
    r(N,q) closed form evaluated at q = the instantaneous stale
    fraction just measured (the k-bucket form for xor, the
    heterogeneous Eq. 7 for symphony). For xor, bucket slots emptied by
    eviction count as stale: a missing contact is as useless to the
    router as a dead one, which keeps the prediction honest for tables
    that shrink under churn.

    Everything is driven by one sequential PRNG stream, so a report is
    a deterministic function of its config. *)

type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  session : Lifetime.t;  (** up-time distribution *)
  gap : Lifetime.t;  (** down-time distribution *)
  maintenance_interval : float;
      (** per-node cadence of ping-before-evict / shortcut-repair ticks *)
  k : int;  (** xor bucket capacity *)
  cache_k : int;  (** xor replacement-cache bound per bucket *)
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs_per_measurement : int;
  seed : int;
}

val config :
  ?bits:int ->
  ?session:Lifetime.t ->
  ?gap:Lifetime.t ->
  ?maintenance_interval:float ->
  ?k:int ->
  ?cache_k:int ->
  ?warmup:float ->
  ?measurements:int ->
  ?measurement_spacing:float ->
  ?pairs_per_measurement:int ->
  ?seed:int ->
  Rcm.Geometry.t ->
  config
(** Every geometry is supported.
    @raise Invalid_argument when {!Rcm.Geometry.check_size} rejects
    [(bits, geometry)], on a non-positive or non-finite
    maintenance interval or measurement spacing, a negative or
    non-finite warmup, [k < 1], [cache_k < 0], no measurements, or no
    pairs per measurement. *)

val churn_rate : config -> float
(** Steady-state per-node turnover rate: 1 / (mean session + mean gap).
    The x-axis of the churn curves. *)

val expected_availability : config -> float
(** Steady-state probability that a node is up:
    mean session / (mean session + mean gap). *)

type measurement = {
  time : float;
  alive_fraction : float;
  stale_fraction : float;
      (** fraction of alive nodes' slots that are dead — for xor,
          counted against bucket capacity, missing entries included *)
  stale_near : float;
      (** per-class staleness: Symphony near links; equals
          [stale_fraction] elsewhere *)
  stale_shortcut : float;  (** Symphony shortcuts; ditto *)
  routability : float option;
      (** [None] when fewer than two nodes were alive — no pair to
          route, so no sample exists *)
  static_prediction : float;
      (** static r(N,q) at q = [stale_fraction] (k-bucket form for xor,
          heterogeneous Eq. 7 for symphony) *)
}

type report = {
  config : config;
  measurements : measurement list;
  mean_alive : float;
  mean_stale : float;
  mean_routability : float;
      (** over measurements with a routability sample; [nan] if none *)
  mean_prediction : float;
  no_pair_measurements : int;
  events_processed : int;
}

val run : config -> report
(** Deterministic in [config.seed]. *)

val check_schedule : string -> warmup:float -> measurements:int -> spacing:float -> unit
(** [check_schedule context ~warmup ~measurements ~spacing] is the
    measurement-schedule check every churn config runs before any
    event: at least one measurement, a finite [warmup >= 0] and a
    finite [spacing > 0].
    @raise Invalid_argument otherwise, the message prefixed with
    [context]. *)

val drive :
  rng:Prng.Splitmix.t ->
  alive:Overlay.Failure.t ->
  session:Lifetime.t ->
  gap:Lifetime.t ->
  maintenance:(float * (int -> unit)) option ->
  warmup:float ->
  measurements:int ->
  spacing:float ->
  rejoin:(int -> unit) ->
  measure:(float -> unit) ->
  int
(** The session/gap event loop shared by {!run} and the storage churn
    simulation; returns the number of events processed up to the
    horizon [warmup + measurements * spacing].

    [alive] starts all alive; every node begins a session. The
    initial schedule draws, per node in id order, one [session]
    length and then, only when [maintenance = Some (interval, tick)],
    one maintenance offset drawn uniformly below [interval]. A departure
    marks the node dead and draws a [gap]; an arrival marks it alive,
    calls [rejoin v], then draws the next session. A maintenance event
    calls [tick v] only if [v] is alive and always reschedules itself
    [interval] later, so the schedule never depends on the alive
    pattern's history (the ticks ride {!Event_queue}'s periodic lane,
    which re-arms each as it pops). [measure time] runs at [warmup + i * spacing]
    for [i < measurements]. Every draw comes from [rng], in event
    order. *)

