(** Steady-state routability vs churn-rate curves for all five
    geometries — the deliverable of the session-churn engine.

    Sweeps the mean session time (at a fixed gap distribution) and runs
    one {!Sim.Session_churn} steady state per (geometry, mean) grid
    point, pairing each measured routability with the static r(N,q)
    closed form at q = the measured stale fraction. The grid runs on
    {!Sweep}: index-derived seeds, so results are bit-identical at any
    domain count; completed points checkpoint as ["kind": "churn"]
    point records ({!codec}) and replay on resume. *)

type config = {
  bits : int;
  session_means : float list;  (** the sweep axis *)
  session_shape : Sim.Lifetime.shape;
  gap_mean : float;
  gap_shape : Sim.Lifetime.shape;
  maintenance_interval : float;
  k : int;  (** xor bucket capacity *)
  cache_k : int;  (** xor replacement-cache bound *)
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs : int;
  seed : int;  (** master seed; per-point seeds derive by index *)
}

val default_config : config

type point = {
  geometry : Rcm.Geometry.t;
  session_mean : float;
  churn_rate : float;  (** 1 / (session mean + gap mean) *)
  availability : float;  (** expected fraction of time a node is up *)
  mean_alive : float;
  mean_stale : float;
  stale_near : float;
  stale_shortcut : float;
  routable_measurements : int;
  mean_routability : float;  (** [nan] when no measurement had a pair *)
  mean_prediction : float;  (** static r(N,q) at q = measured staleness *)
  no_pair_measurements : int;
  events : int;  (** simulation events processed for this point *)
}

val default_geometries : Rcm.Geometry.t list

val validate : ?geometries:Rcm.Geometry.t list -> config -> unit
(** Builds the {!Sim.Session_churn.config} of every grid point
    ([geometries] defaults to {!default_geometries}), so any bad value
    — non-positive or non-finite times and means, [k < 1],
    [cache_k < 0], no measurements or pairs, an empty sweep, a
    geometry that does not fit [bits] — fails here, once, before any
    point runs.
    @raise Invalid_argument on the first violation. *)

val run :
  ?pool:Exec.Pool.t ->
  ?geometries:Rcm.Geometry.t list ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?checkpoint:Sim.Checkpoint.t ->
  config ->
  point list
(** Points in geometry-major order (the [geometries] order, then
    [session_means] order). Deterministic in [cfg.seed] at any pool
    size.
    @raise Invalid_argument when {!validate} rejects [cfg] or
    [retries < 0].
    @raise Exec.Cancel.Cancelled on cooperative cancellation (the
    checkpoint is flushed first).
    @raise Failure when a stored record does not decode or a point
    exhausts its retries. *)

val codec : config -> (Rcm.Geometry.t * float, point) Sim.Sweep.codec
(** The ["churn"] checkpoint records of a sweep over [config], with
    (geometry, session mean) coordinates. The key holds every config
    field that determines a point plus its derived seed; a
    [mean_routability] of [nan] (no measurement found a pair, so
    [routable_measurements = 0]) is stored as an absent field.
    Test hook: {!run} uses it only inside the sweep engine, and
    [test_churn] round-trips points through it, [nan] included. *)

val pp_points : Format.formatter -> point list -> unit

val csv_header : string

val to_csv_row : config -> point -> string

val to_json : config -> point -> string
(** One JSON object per point. *)
