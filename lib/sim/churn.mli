(** Discrete-event churn simulation — the dynamic setting the paper
    (section 1) leaves "currently under study".

    Nodes alternate exponentially distributed up/down periods. Failure
    *detection* is immediate (a dead entry is never used — TCP timeouts
    / keep-alives), but *replacement* happens only at periodic repairs
    or when the owner rejoins, matching the paper's observation that
    re-establishing connections is the expensive part. At each
    measurement the simulator records the stale-entry fraction
    q_stale and pairs the measured routability with the static RCM
    prediction evaluated at q = q_stale: the bridge from the static
    model to churn. Geometries with re-drawable entries (xor buckets,
    symphony shortcuts) heal at repairs; ring fingers are deterministic
    and heal only when their target returns. *)

type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  mean_uptime : float;
  mean_downtime : float;
  repair_interval : float;
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs_per_measurement : int;
  seed : int;
}

val config :
  ?bits:int ->
  ?mean_uptime:float ->
  ?mean_downtime:float ->
  ?repair_interval:float ->
  ?warmup:float ->
  ?measurements:int ->
  ?measurement_spacing:float ->
  ?pairs_per_measurement:int ->
  ?seed:int ->
  Rcm.Geometry.t ->
  config
(** @raise Invalid_argument for non-positive or non-finite lifetimes,
    repair interval or measurement spacing, a negative or non-finite
    warmup, no measurements, no pairs per measurement, or unsupported
    geometries (tree and hypercube have no churn story here). *)

type measurement = {
  time : float;
  alive_fraction : float;
  stale_fraction : float;
      (** fraction of alive nodes' entries pointing at dead nodes *)
  stale_near : float;
      (** staleness of positional (unrepairable) entries — Symphony's
          near links; equals [stale_fraction] for single-class tables *)
  stale_shortcut : float;  (** staleness of re-drawable entries *)
  routability : float option;
      (** [None] when fewer than two nodes survived — no pair to route,
          so no routability sample exists for this measurement *)
  static_prediction : float;
      (** RCM routability at q = stale_fraction (heterogeneous Eq. 7
          with per-class staleness for Symphony) *)
}

type report = {
  config : config;
  measurements : measurement list;
  mean_alive : float;
  mean_stale : float;
  mean_routability : float;
      (** mean over measurements that produced a routability sample;
          [nan] when none did *)
  mean_prediction : float;
  no_pair_measurements : int;
      (** measurements skipped from [mean_routability] because fewer
          than two nodes survived *)
}

val run : config -> report
(** Deterministic in [config.seed]. *)

val expected_down_fraction : config -> float
(** Steady-state probability that a node is down:
    downtime / (uptime + downtime). *)

val pp_report : Format.formatter -> report -> unit
