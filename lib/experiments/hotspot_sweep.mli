(** The congestion figure: per-node load concentration across the
    routing and storage planes.

    Two plane sweeps share one grid driver and point shape:

    - {b routing} ([Routing]): the axis is the failure probability q.
      Each point builds [trials] fresh flat tables for one geometry,
      fails nodes i.i.d. and routes [pairs] sampled survivor pairs per
      trial under an {!Obs.Loadmap} sink — through the batch kernel, or
      the scalar routers under [--no-batch], which count identically
      (pinned by [test/test_batch.ml]). All five geometries apply.
    - {b storage} ([Storage]): the axis is the Zipf key-popularity
      exponent s. Each point runs {!Storage.Failure_sim} at a fixed q
      under a sink, so the map holds reads served and repairs absorbed
      plus the traversals of every probe/repair route. The four
      sparse-capable geometries apply.

    Every point carries its merged loadmap and a
    {!Obs.Loadmap_report.summary} per counter kind; the congestion
    column of the figure is the plane's {!primary} kind (traversals,
    or storage reads). The grid runs on {!Sweep} with index-derived
    48-bit seeds: per-node counts are bit-identical at any domain count
    (pinned by the [hotspots] row of [scripts/sweep_smoke.sh]). Points
    are not checkpointed. *)

type plane = Routing | Storage

val plane_tag : plane -> string
(** ["routing"] / ["storage"] — CSV and JSON label. *)

type config = {
  bits : int;  (** identifier space is 2^bits; routing tables are full *)
  pairs : int;  (** routed pairs per routing-plane trial *)
  qs : float list;  (** routing axis: failure probabilities *)
  storage_nodes : int;  (** sparse overlay occupancy, storage plane *)
  keys : int;
  reads : int;  (** reads per storage trial *)
  r : int;  (** replication degree (majority quorums) *)
  storage_q : float;  (** fixed failure probability, storage plane *)
  zipf_ss : float list;  (** storage axis: key-popularity exponents *)
  trials : int;  (** independent worlds per point, both planes *)
  seed : int;  (** master seed; per-point seeds derive by grid index *)
}

val default_config : config
(** bits 10, 2000 pairs, q 0.0 .. 0.5; 512 storage nodes, 64 keys,
    256 reads, R = 3 at q = 0.3, s 0.0 .. 1.2; 3 trials. *)

val validate : ?planes:plane list -> config -> unit
(** Checks ranges, and that the selected [planes] (default both) have
    at least one axis value between them, i.e. that the grid is not
    empty.
    @raise Invalid_argument on the first violation. *)

type point = {
  plane : plane;
  geometry : Rcm.Geometry.t;
  axis : float;  (** q (routing) or Zipf s (storage) *)
  nodes : int;
  loadmap : Obs.Loadmap.t;  (** the point's merged per-node counters *)
  traversals : Obs.Loadmap_report.summary;
  terminations : Obs.Loadmap_report.summary;
  storage_reads : Obs.Loadmap_report.summary;
  repairs : Obs.Loadmap_report.summary;
}

val primary_kind : plane -> Obs.Loadmap.kind
(** The counter the plane's congestion figure plots: route traversals
    on the routing plane, storage reads on the storage plane. *)

val primary : point -> Obs.Loadmap_report.summary

val default_routing_geometries : Rcm.Geometry.t list
(** All five geometries. *)

val default_storage_geometries : Rcm.Geometry.t list
(** The four sparse-capable geometries (no hypercube). *)

val run :
  ?pool:Exec.Pool.t ->
  ?planes:plane list ->
  ?routing_geometries:Rcm.Geometry.t list ->
  ?storage_geometries:Rcm.Geometry.t list ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  config ->
  point list
(** Points in grid order: the routing plane (geometry-major over
    [qs]), then the storage plane (geometry-major over [zipf_ss]).
    Deterministic in [cfg.seed] at any pool size.
    @raise Invalid_argument when {!validate} rejects [cfg] for
    [planes], a storage geometry has no sparse overlay, or
    [retries < 0].
    @raise Exec.Cancel.Cancelled on cooperative cancellation
    @raise Failure when a point exhausts its retries. *)

val merged : plane -> point list -> Obs.Loadmap.t option
(** The elementwise sum of one plane's point loadmaps, merged in grid
    order — what [dhtlab hotspots --loadmap] persists. [None] when the
    plane has no points. *)

val pp_points : Format.formatter -> point list -> unit

val csv_header : string
val to_csv_row : config -> point -> string
val to_json : config -> point -> string
