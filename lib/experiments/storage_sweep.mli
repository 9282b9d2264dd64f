(** Data-availability curves for the replicated storage layer — the
    deliverable of [lib/storage].

    Two sweep modes share one grid driver, point shape and checkpoint
    record:

    - {b static} ([Static]): the axis is the failure probability q.
      Each point runs {!Storage.Failure_sim} (fresh overlay + placement
      + alive-mask per trial) and pairs the measured replica-survival
      fraction with Leslie's closed form
      {!Rcm.Data_availability.replica_survival} — the [analytic]
      column the acceptance test checks against the Wilson interval.
    - {b churn} ([Churn]): the axis is the mean session length. Each
      point runs {!Storage.Churn_sim}; [analytic] is the closed form
      evaluated at the steady-state offline fraction
      gap / (session + gap), i.e. what would survive {e without}
      read-repair.

    The grid is geometry-major, then replication degree [r], then the
    axis, and runs on {!Sweep}: index-derived 48-bit seeds
    (bit-identical at any domain count); completed points checkpoint as
    ["kind": "storage"] point records ({!codec}) and replay on
    resume. *)

type mode =
  | Static of { qs : float list; trials : int }
  | Churn of {
      session_means : float list;
      session_shape : Sim.Lifetime.shape;
      gap_mean : float;
      gap_shape : Sim.Lifetime.shape;
      warmup : float;
      measurements : int;
      spacing : float;
    }

type config = {
  bits : int;
  nodes : int;
  keys : int;
  reads : int;  (** reads per trial (static) or per epoch (churn) *)
  zipf_s : float;
  rs : int list;  (** replication degrees to sweep *)
  rq_spec : string;  (** read-quorum spec, resolved per r: "majority" | "one" | "all" | int *)
  wq_spec : string;  (** write-quorum spec, same grammar *)
  mode : mode;
  seed : int;  (** master seed; per-point seeds derive by index *)
}

val default_config : config
(** bits 10, nodes 512, 64 keys, 256 reads, zipf 0.8, R ∈ {1, 2, 4}
    at majority quorums, static qs 0.1 .. 0.5 with 4 trials. *)

val validate : ?geometries:Rcm.Geometry.t list -> config -> unit
(** Checks ranges, resolves the quorum specs against every [r], and
    checks that every geometry (default {!default_geometries}) can be
    built sparse at [bits] and [nodes] ({!Rcm.Geometry.check_size}), so
    a bad config fails before any point runs.
    @raise Invalid_argument on any violation. *)

val quorum_for : config -> r:int -> Storage.Quorum.t
(** The resolved thresholds for one replication degree.
    @raise Invalid_argument when a spec does not fit [r]. *)

type point = {
  geometry : Rcm.Geometry.t;
  r : int;
  rq : int;
  wq : int;
  axis : float;  (** q (static) or mean session length (churn) *)
  churn_rate : float;  (** [nan] in static mode *)
  attempted : int;
  quorum_reads : int;
  degraded_reads : int;
  failed_reads : int;
  no_client : int;
  availability : float;
      (** quorum-read fraction; [nan] when nothing was attempted *)
  survival : float;  (** measured replica survival vs initial placement *)
  analytic : float;  (** Leslie closed-form replica survival *)
  mean_alive : float;
  probe_routes : int;
  repair_routes : int;
  repair_transfers : int;
  load_max : int;
  load_mean : float;
  load_p99 : int;
  events : int;  (** churn events processed; 0 in static mode *)
}

val default_geometries : Rcm.Geometry.t list
(** The four sparse-capable geometries: ring, tree, xor, symphony. *)

val run :
  ?pool:Exec.Pool.t ->
  ?geometries:Rcm.Geometry.t list ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?checkpoint:Sim.Checkpoint.t ->
  config ->
  point list
(** Points in grid order (geometries, then [rs], then the axis).
    Deterministic in [cfg.seed] at any pool size.
    @raise Invalid_argument when {!validate} rejects [cfg], a
    geometry has no sparse overlay, or [retries < 0].
    @raise Exec.Cancel.Cancelled on cooperative cancellation (the
    checkpoint is flushed first)
    @raise Failure when a stored record does not decode or a point
    exhausts its retries. *)

val codec : config -> (Rcm.Geometry.t * Storage.Quorum.t * float, point) Sim.Sweep.codec
(** The ["storage"] checkpoint records of a sweep over [config], with
    (geometry, quorum, axis) coordinates. One key shape covers both
    modes (the churn-only fields are [""] / 0 in static mode, [trials]
    is 1 in churn mode) and ends with the derived seed; an
    [availability] of [nan] (nothing attempted) is stored as an absent
    field. Test hook: {!run} uses it only inside the sweep engine, and
    [test_storage] round-trips points through it, [nan] included. *)

val pp_points : Format.formatter -> point list -> unit

val csv_header : string
val to_csv_row : config -> point -> string
val to_json : config -> point -> string
