(** Experiment E8 — bridging static resilience to churn.

    The paper's static model assumes a frozen failure pattern; its
    introduction argues this approximates the window between fault
    detection (fast) and table repair (slow), and leaves the dynamic
    case under study. This experiment runs the session-churn engine
    ({!Sim.Session_churn}) across churn intensities and repair periods
    and checks how well the static routability evaluated at the
    *measured* stale-entry fraction predicts the routability measured
    under churn. *)

type config = {
  bits : int;
  mean_downtimes : float list;
  repair_intervals : float list;
  pairs : int;
  seed : int;
}

val default_config : config
(** The published E8 table's settings. Test hook: like everything in
    this module, since no command prints E8; [test_churn] diffs
    {!pp_rows} over these rows against
    [test/golden/churn-bridge-default.txt]. *)

type row = {
  geometry : Rcm.Geometry.t;
  mean_downtime : float;
  repair_interval : float;
  report : Sim.Session_churn.report;
  static_sim : float;
      (** routability of a static snapshot at q = measured stale
          fraction *)
}

val run : geometries:Rcm.Geometry.t list -> config -> row list
(** One row per (geometry, mean downtime, repair interval):
    exponential sessions of mean 8 and gaps of the mean downtime,
    maintenance every repair interval, the remaining
    {!Sim.Session_churn.config} defaults. The published table runs [record:h=2], ring and
    symphony: ReCord at h = 2 is the paper's one-contact xor table
    with dead entries redrawn at each repair, where [xor]
    would run k-bucket maintenance instead. Test hook: see
    {!default_config}. *)

val bridge_error : row -> float
(** |measured routability - static *simulation* at q = stale fraction|:
    the pure static-to-churn mapping error, free of model
    idealisations. Test hook: see {!default_config}. *)

val pp_rows : Format.formatter -> row list -> unit
(** The E8 table. Test hook: see {!default_config}. *)
