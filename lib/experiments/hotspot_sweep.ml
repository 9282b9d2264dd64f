(* Per-node congestion across the routing and storage planes: each
   point routes (or reads) a fixed workload under an {!Obs.Loadmap}
   sink and summarizes where the traffic landed. The routing axis
   sweeps the failure probability q over all five geometries on flat
   tables; the storage axis sweeps the key-popularity exponent s over
   the four sparse-capable geometries. *)

type plane = Routing | Storage

let plane_tag = function Routing -> "routing" | Storage -> "storage"

type config = {
  bits : int;
  pairs : int;
  qs : float list;
  storage_nodes : int;
  keys : int;
  reads : int;
  r : int;
  storage_q : float;
  zipf_ss : float list;
  trials : int;
  seed : int;
}

let default_config =
  {
    bits = 10;
    pairs = 2_000;
    qs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
    storage_nodes = 512;
    keys = 64;
    reads = 256;
    r = 3;
    storage_q = 0.3;
    zipf_ss = [ 0.0; 0.4; 0.8; 1.2 ];
    trials = 3;
    seed = 2027;
  }

let quorum cfg = Storage.Quorum.majority ~r:cfg.r

let storage_config cfg ~zipf_s =
  {
    Storage.Failure_sim.bits = cfg.bits;
    nodes = cfg.storage_nodes;
    keys = cfg.keys;
    reads = cfg.reads;
    zipf_s;
    quorum = quorum cfg;
    trials = cfg.trials;
  }

let default_routing_geometries = Rcm.Geometry.all_default

let default_storage_geometries = Storage_sweep.default_geometries

let validate ?(planes = [ Routing; Storage ]) ?(routing_geometries = default_routing_geometries)
    ?(storage_geometries = default_storage_geometries) cfg =
  if cfg.bits < 1 || cfg.bits > 22 then
    invalid_arg "Hotspot_sweep: bits outside 1..22";
  if cfg.pairs < 1 then invalid_arg "Hotspot_sweep: pairs must be >= 1";
  if cfg.trials < 1 then invalid_arg "Hotspot_sweep: trials must be >= 1";
  if List.for_all (function Routing -> cfg.qs = [] | Storage -> cfg.zipf_ss = []) planes
  then invalid_arg "Hotspot_sweep: empty grid (no selected plane has an axis value)";
  List.iter (fun q -> Rcm.Spec.check_q q) cfg.qs;
  Rcm.Spec.check_q cfg.storage_q;
  if cfg.zipf_ss <> [] then
    List.iter
      (fun s -> Storage.Failure_sim.validate (storage_config cfg ~zipf_s:s))
      cfg.zipf_ss;
  let check ?nodes plane geometries =
    if List.mem plane planes then
      List.iter (Rcm.Geometry.check_size_exn "Hotspot_sweep" ?nodes ~bits:cfg.bits) geometries
  in
  check Routing routing_geometries;
  check ~nodes:cfg.storage_nodes Storage storage_geometries

type point = {
  plane : plane;
  geometry : Rcm.Geometry.t;
  axis : float;
  nodes : int;
  loadmap : Obs.Loadmap.t;
  traversals : Obs.Loadmap_report.summary;
  terminations : Obs.Loadmap_report.summary;
  storage_reads : Obs.Loadmap_report.summary;
  repairs : Obs.Loadmap_report.summary;
}

(* The kind a plane's congestion figure plots: where routed messages
   travel, or which replica holders serve the reads. *)
let primary_kind = function
  | Routing -> Obs.Loadmap.Route_traversal
  | Storage -> Obs.Loadmap.Storage_read

let primary p =
  match p.plane with Routing -> p.traversals | Storage -> p.storage_reads

(* One routing-plane point: [trials] fresh worlds, each routing
   [pairs] sampled pairs among the survivors of an i.i.d. q-failure,
   all recorded into one per-point loadmap. The batch kernel and the
   scalar loop are interchangeable here — both count the same accepted
   hops and terminations (route_batch.mli, "Load telemetry") — so a
   [--no-batch] run produces the identical loadmap. *)
let run_routing_point cfg geometry ~q ~seed =
  let lm = Obs.Loadmap.create ~nodes:(1 lsl cfg.bits) in
  let rng = Prng.Splitmix.create ~seed in
  Obs.Loadmap.with_sink lm (fun () ->
      for _ = 1 to cfg.trials do
        let table = Overlay.Table.build ~rng ~bits:cfg.bits geometry in
        let alive =
          Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table)
        in
        ignore
          (Sim.Trial.run ~table ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
               Routing.Router.route table ~rng ~alive ~src ~dst))
      done);
  lm

(* One storage-plane point: the whole {!Storage.Failure_sim} run (its
   own trials loop) executes under the point's sink, so the loadmap
   accumulates reads served and repairs absorbed across all trials —
   plus the traversals of every probe and repair route, which land in
   the same map via {!Routing.Sparse_router}. *)
let run_storage_point cfg geometry ~zipf_s ~seed =
  let lm = Obs.Loadmap.create ~nodes:cfg.storage_nodes in
  Obs.Loadmap.with_sink lm (fun () ->
      ignore
        (Storage.Failure_sim.run geometry (storage_config cfg ~zipf_s)
           ~q:cfg.storage_q ~seed));
  lm

let point_of_loadmap ~plane ~geometry ~axis lm =
  {
    plane;
    geometry;
    axis;
    nodes = Obs.Loadmap.nodes lm;
    loadmap = lm;
    traversals = Obs.Loadmap_report.summarize lm Obs.Loadmap.Route_traversal;
    terminations =
      Obs.Loadmap_report.summarize lm Obs.Loadmap.Route_termination;
    storage_reads = Obs.Loadmap_report.summarize lm Obs.Loadmap.Storage_read;
    repairs = Obs.Loadmap_report.summarize lm Obs.Loadmap.Repair;
  }

let run_point cfg (plane, geometry, axis) ~seed =
  let lm =
    Obs.Trace.span "hotspots/point"
      ~attrs:
        (if Obs.Trace.enabled () then
           [
             ("plane", Obs.Trace.String (plane_tag plane));
             ("geometry", Obs.Trace.String (Rcm.Geometry.slug geometry));
             ("axis", Obs.Trace.Float axis);
           ]
         else [])
      (fun () ->
        match plane with
        | Routing -> run_routing_point cfg geometry ~q:axis ~seed
        | Storage -> run_storage_point cfg geometry ~zipf_s:axis ~seed)
  in
  point_of_loadmap ~plane ~geometry ~axis lm

let run ?pool ?(planes = [ Routing; Storage ])
    ?(routing_geometries = default_routing_geometries)
    ?(storage_geometries = default_storage_geometries) ?retries ?fault cfg =
  validate ~planes ~routing_geometries ~storage_geometries cfg;
  (* The grid: routing plane first (geometry-major over qs), then the
     storage plane (geometry-major over zipf exponents). *)
  let plane_grid plane geometries axis =
    if List.mem plane planes then
      List.concat_map (fun g -> List.map (fun a -> (plane, g, a)) axis) geometries
    else []
  in
  Sim.Sweep.points ?pool ?retries ?fault ~label:"hotspots"
    ~group:(fun (plane, g, _) -> plane_tag plane ^ "/" ^ Rcm.Geometry.slug g)
    ~describe:(fun (plane, g, axis) ->
      Printf.sprintf "%s plane, %s, axis %g" (plane_tag plane) (Rcm.Geometry.slug g) axis)
    ~seed:cfg.seed
    (plane_grid Routing routing_geometries cfg.qs
    @ plane_grid Storage storage_geometries cfg.zipf_ss)
    (run_point cfg)

(* Merge every point of one plane (they share a node count) in list —
   i.e. grid — order. Integer addition commutes, so the result is
   byte-identical at any pool size. *)
let merged plane points =
  match List.filter (fun p -> p.plane = plane) points with
  | [] -> None
  | first :: _ as selected ->
      let dst = Obs.Loadmap.create ~nodes:first.nodes in
      List.iter (fun p -> Obs.Loadmap.merge_into ~dst p.loadmap) selected;
      Some dst

(* --- rendering ------------------------------------------------------------ *)

let float_or_nan v tag = if Float.is_finite v then Printf.sprintf tag v else "nan"

let pp_points ppf points =
  Fmt.pf ppf
    "# per-node load: congestion (max/mean) and Gini of the plane's primary \
     counter@.";
  Fmt.pf ppf "%-8s %-10s %8s %13s %8s %8s %8s %10s %8s@." "plane" "geometry"
    "axis" "kind" "total" "active" "max" "congestion" "gini";
  List.iter
    (fun p ->
      let s = primary p in
      Fmt.pf ppf "%-8s %-10s %8g %13s %8d %8d %8d %10.3f %8.4f@."
        (plane_tag p.plane)
        (Rcm.Geometry.slug p.geometry)
        p.axis
        (Obs.Loadmap.kind_name (primary_kind p.plane))
        s.Obs.Loadmap_report.total s.active_nodes s.max s.congestion s.gini)
    points

let csv_header =
  "plane,geometry,bits,nodes,axis,kind,total,active_nodes,load_max,load_mean,congestion,gini,traversals,terminations,storage_reads,repairs"

let to_csv_row cfg p =
  let s = primary p in
  Printf.sprintf "%s,%s,%d,%d,%g,%s,%d,%d,%d,%s,%s,%s,%d,%d,%d,%d"
    (plane_tag p.plane)
    (Rcm.Geometry.slug p.geometry)
    cfg.bits p.nodes p.axis
    (Obs.Loadmap.kind_name (primary_kind p.plane))
    s.Obs.Loadmap_report.total s.active_nodes s.max
    (float_or_nan s.mean "%.6f")
    (float_or_nan s.congestion "%.6f")
    (float_or_nan s.gini "%.6f")
    p.traversals.Obs.Loadmap_report.total p.terminations.Obs.Loadmap_report.total
    p.storage_reads.Obs.Loadmap_report.total p.repairs.Obs.Loadmap_report.total

let to_json cfg p =
  let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
  let summary_json (s : Obs.Loadmap_report.summary) =
    Printf.sprintf
      "{\"total\": %d, \"active_nodes\": %d, \"max\": %d, \"mean\": %s, \
       \"congestion\": %s, \"gini\": %s}"
      s.total s.active_nodes s.max (json_float s.mean)
      (json_float s.congestion) (json_float s.gini)
  in
  Printf.sprintf
    "{\"plane\": %S, \"geometry\": %S, \"bits\": %d, \"nodes\": %d, \"axis\": \
     %s, \"kind\": %S, \"traversals\": %s, \"terminations\": %s, \
     \"storage_reads\": %s, \"repairs\": %s}"
    (plane_tag p.plane)
    (Rcm.Geometry.slug p.geometry)
    cfg.bits p.nodes (json_float p.axis)
    (Obs.Loadmap.kind_name (primary_kind p.plane))
    (summary_json p.traversals) (summary_json p.terminations)
    (summary_json p.storage_reads) (summary_json p.repairs)
