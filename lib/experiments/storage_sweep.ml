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
  reads : int;
  zipf_s : float;
  rs : int list;
  rq_spec : string;
  wq_spec : string;
  mode : mode;
  seed : int;
}

let default_config =
  {
    bits = 10;
    nodes = 512;
    keys = 64;
    reads = 256;
    zipf_s = 0.8;
    rs = [ 1; 2; 4 ];
    rq_spec = "majority";
    wq_spec = "majority";
    mode = Static { qs = [ 0.1; 0.2; 0.3; 0.4; 0.5 ]; trials = 4 };
    seed = 909;
  }

let quorum_for cfg ~r =
  let resolve name spec =
    match Storage.Quorum.threshold_of_string ~r spec with
    | Ok k -> k
    | Error msg ->
        invalid_arg (Printf.sprintf "Storage_sweep: %s: %s" name msg)
  in
  Storage.Quorum.make ~r ~rq:(resolve "read quorum" cfg.rq_spec)
    ~wq:(resolve "write quorum" cfg.wq_spec)

let axis_values cfg =
  match cfg.mode with
  | Static { qs; _ } -> qs
  | Churn { session_means; _ } -> session_means

let churn_config cfg ~quorum ~session_shape ~gap_shape ~gap_mean ~warmup
    ~measurements ~spacing ~session_mean =
  let lifetime shape ~mean =
    match shape with
    | Sim.Lifetime.Exponential -> Sim.Lifetime.exponential ~mean
    | Sim.Lifetime.Pareto alpha -> Sim.Lifetime.pareto ~alpha ~mean
    | Sim.Lifetime.Weibull s -> Sim.Lifetime.weibull ~shape:s ~mean
  in
  {
    Storage.Churn_sim.bits = cfg.bits;
    nodes = cfg.nodes;
    keys = cfg.keys;
    reads = cfg.reads;
    zipf_s = cfg.zipf_s;
    quorum;
    session = lifetime session_shape ~mean:session_mean;
    gap = lifetime gap_shape ~mean:gap_mean;
    warmup;
    measurements;
    spacing;
  }

let failure_config cfg ~quorum ~trials =
  {
    Storage.Failure_sim.bits = cfg.bits;
    nodes = cfg.nodes;
    keys = cfg.keys;
    reads = cfg.reads;
    zipf_s = cfg.zipf_s;
    quorum;
    trials;
  }

let default_geometries =
  [ Rcm.Geometry.Ring; Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.default_symphony ]

let validate ?(geometries = default_geometries) cfg =
  if cfg.rs = [] then invalid_arg "Storage_sweep: empty replication sweep";
  if axis_values cfg = [] then invalid_arg "Storage_sweep: empty axis";
  List.iter
    (fun r ->
      let quorum = quorum_for cfg ~r in
      match cfg.mode with
      | Static { qs; trials } ->
          List.iter (fun q -> Rcm.Spec.check_q q) qs;
          Storage.Failure_sim.validate (failure_config cfg ~quorum ~trials)
      | Churn { session_means; session_shape; gap_mean; gap_shape; warmup; measurements; spacing } ->
          List.iter
            (fun mean ->
              Storage.Churn_sim.validate
                (churn_config cfg ~quorum ~session_shape ~gap_shape ~gap_mean
                   ~warmup ~measurements ~spacing ~session_mean:mean))
            session_means)
    cfg.rs;
  List.iter
    (Rcm.Geometry.check_size_exn "Storage_sweep" ~nodes:cfg.nodes ~bits:cfg.bits)
    geometries

type point = {
  geometry : Rcm.Geometry.t;
  r : int;
  rq : int;
  wq : int;
  axis : float;
  churn_rate : float;
  attempted : int;
  quorum_reads : int;
  degraded_reads : int;
  failed_reads : int;
  no_client : int;
  availability : float;
  survival : float;
  analytic : float;
  mean_alive : float;
  probe_routes : int;
  repair_routes : int;
  repair_transfers : int;
  load_max : int;
  load_mean : float;
  load_p99 : int;
  events : int;
}

let mode_tag = function Static _ -> "static" | Churn _ -> "churn"

let analytic cfg ~quorum ~axis =
  let r = quorum.Storage.Quorum.r and rq = quorum.Storage.Quorum.rq in
  match cfg.mode with
  | Static _ -> Rcm.Data_availability.replica_survival ~q:axis ~r ~quorum:rq
  | Churn { gap_mean; _ } ->
      (* Steady-state offline fraction plays the role of q: the
         no-repair baseline the simulated (repaired) survival should
         beat. *)
      let q = gap_mean /. (axis +. gap_mean) in
      Rcm.Data_availability.replica_survival ~q ~r ~quorum:rq

(* The fields a point takes from the config alone; a run or a
   checkpoint record fills in the measured ones. *)
let point_at cfg (geometry, quorum, axis) =
  {
    geometry;
    r = quorum.Storage.Quorum.r;
    rq = quorum.Storage.Quorum.rq;
    wq = quorum.Storage.Quorum.wq;
    axis;
    churn_rate =
      (match cfg.mode with
      | Static _ -> Float.nan
      | Churn { gap_mean; _ } -> 1. /. (axis +. gap_mean));
    attempted = 0;
    quorum_reads = 0;
    degraded_reads = 0;
    failed_reads = 0;
    no_client = 0;
    availability = Float.nan;
    survival = Float.nan;
    analytic = Float.nan;
    mean_alive = Float.nan;
    probe_routes = 0;
    repair_routes = 0;
    repair_transfers = 0;
    load_max = 0;
    load_mean = Float.nan;
    load_p99 = 0;
    events = 0;
  }

let run_point cfg ((geometry, quorum, axis) as coords) ~seed =
  Obs.Trace.span "storage/point"
    ~attrs:
      (if Obs.Trace.enabled () then
         [
           ("geometry", Obs.Trace.String (Rcm.Geometry.slug geometry));
           ("quorum", Obs.Trace.String (Format.asprintf "%a" Storage.Quorum.pp quorum));
           ("axis", Obs.Trace.Float axis);
         ]
       else [])
  @@ fun () ->
  let reads, availability, survival, mean_alive, (load_max, load_mean, load_p99), events =
    match cfg.mode with
    | Static { trials; _ } ->
        let r =
          Storage.Failure_sim.run geometry (failure_config cfg ~quorum ~trials) ~q:axis ~seed
        in
        Storage.Failure_sim.
          ( r.reads,
            r.availability,
            r.survival,
            r.mean_alive,
            (r.load_max, r.load_mean, r.load_p99),
            0 )
    | Churn { session_shape; gap_shape; gap_mean; warmup; measurements; spacing; _ } ->
        let r =
          Storage.Churn_sim.run geometry
            (churn_config cfg ~quorum ~session_shape ~gap_shape ~gap_mean ~warmup
               ~measurements ~spacing ~session_mean:axis)
            ~seed
        in
        Storage.Churn_sim.
          ( r.reads,
            r.availability,
            r.survival,
            r.mean_alive,
            (r.load_max, r.load_mean, r.load_p99),
            r.events )
  in
  {
    (point_at cfg coords) with
    analytic = analytic cfg ~quorum ~axis;
    attempted = reads.Storage.Store.attempted;
    quorum_reads = reads.quorum_reads;
    degraded_reads = reads.degraded_reads;
    failed_reads = reads.failed_reads;
    no_client = reads.no_client;
    availability = Option.value availability ~default:Float.nan;
    survival;
    mean_alive;
    probe_routes = reads.probe_routes;
    repair_routes = reads.repair_routes;
    repair_transfers = reads.repair_transfers;
    load_max;
    load_mean;
    load_p99;
    events;
  }

let codec cfg =
  let open Obs.Tiny_json in
  let int = Sim.Checkpoint.int in
  (* One key shape covers both modes: the churn-only fields are empty
     or zero in static mode. *)
  let session, gap, gap_mean, warmup, measurements, spacing, trials =
    match cfg.mode with
    | Static { trials; _ } -> ("", "", 0., 0., 0, 0., trials)
    | Churn { session_shape; gap_shape; gap_mean; warmup; measurements; spacing; _ } ->
        ( Sim.Lifetime.shape_to_string session_shape,
          Sim.Lifetime.shape_to_string gap_shape,
          gap_mean,
          warmup,
          measurements,
          spacing,
          1 )
  in
  {
    Sim.Sweep.kind = "storage";
    key =
      (fun (geometry, quorum, axis) ~seed ->
        [
          ("geometry", Str (Rcm.Geometry.slug geometry));
          ("bits", int cfg.bits);
          ("nodes", int cfg.nodes);
          ("keys", int cfg.keys);
          ("reads", int cfg.reads);
          ("zipf", Num cfg.zipf_s);
          ("r", int quorum.Storage.Quorum.r);
          ("rq", int quorum.Storage.Quorum.rq);
          ("wq", int quorum.Storage.Quorum.wq);
          ("mode", Str (mode_tag cfg.mode));
          ("axis", Num axis);
          ("session", Str session);
          ("gap", Str gap);
          ("gap_mean", Num gap_mean);
          ("warmup", Num warmup);
          ("measurements", int measurements);
          ("spacing", Num spacing);
          ("trials", int trials);
          ("seed", int seed);
        ]);
    encode =
      (fun p ->
        [
          ("attempted", int p.attempted);
          ("quorum", int p.quorum_reads);
          ("degraded", int p.degraded_reads);
          ("failed", int p.failed_reads);
          ("no_client", int p.no_client);
          (* nan (no read attempted) exactly when attempted = 0 *)
          ("availability", Num p.availability);
          ("survival", Num p.survival);
          ("analytic", Num p.analytic);
          ("alive", Num p.mean_alive);
          ("probe_routes", int p.probe_routes);
          ("repair_routes", int p.repair_routes);
          ("repair_transfers", int p.repair_transfers);
          ("load_max", int p.load_max);
          ("load_mean", Num p.load_mean);
          ("load_p99", int p.load_p99);
          ("events", int p.events);
        ]);
    decode =
      (fun coords f ->
        let open Sim.Checkpoint in
        let attempted = get_int f "attempted" in
        {
          (point_at cfg coords) with
          attempted;
          quorum_reads = get_int f "quorum";
          degraded_reads = get_int f "degraded";
          failed_reads = get_int f "failed";
          no_client = get_int f "no_client";
          availability = (if attempted > 0 then get_float f "availability" else Float.nan);
          survival = get_float f "survival";
          analytic = get_float f "analytic";
          mean_alive = get_float f "alive";
          probe_routes = get_int f "probe_routes";
          repair_routes = get_int f "repair_routes";
          repair_transfers = get_int f "repair_transfers";
          load_max = get_int f "load_max";
          load_mean = get_float f "load_mean";
          load_p99 = get_int f "load_p99";
          events = get_int f "events";
        });
  }

let run ?pool ?(geometries = default_geometries) ?retries ?fault ?checkpoint cfg =
  validate ~geometries cfg;
  let quorums = List.map (fun r -> quorum_for cfg ~r) cfg.rs in
  let grid =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun quorum -> List.map (fun axis -> (g, quorum, axis)) (axis_values cfg))
          quorums)
      geometries
  in
  Sim.Sweep.points ?pool ?retries ?fault
    ?checkpoint:(Option.map (fun ck -> (ck, codec cfg)) checkpoint)
    ~label:"storage"
    ~group:(fun (g, _, _) -> Rcm.Geometry.slug g)
    ~describe:(fun (g, quorum, axis) ->
      Printf.sprintf "%s, r=%d, %s %g" (Rcm.Geometry.slug g) quorum.Storage.Quorum.r
        (mode_tag cfg.mode) axis)
    ~seed:cfg.seed grid (run_point cfg)

(* --- rendering -------------------------------------------------------------- *)

let float_or_nan v tag = if Float.is_finite v then Printf.sprintf tag v else "nan"

let pp_points ppf points =
  Fmt.pf ppf
    "# replicated storage: quorum-read availability and replica survival vs the Leslie closed form@.";
  Fmt.pf ppf "%-10s %3s %3s %3s %8s %8s %9s %9s %9s %8s %8s %8s@." "geometry" "r" "rq"
    "wq" "axis" "avail" "survival" "analytic" "degraded" "repairs" "load-max" "load-p99";
  List.iter
    (fun p ->
      let degraded =
        if p.attempted = 0 then Float.nan
        else float_of_int p.degraded_reads /. float_of_int p.attempted
      in
      Fmt.pf ppf "%-10s %3d %3d %3d %8g %8s %9.4f %9.4f %9s %8d %8d %8d@."
        (Rcm.Geometry.slug p.geometry)
        p.r p.rq p.wq p.axis
        (float_or_nan p.availability "%8.4f")
        p.survival p.analytic
        (float_or_nan degraded "%9.4f")
        p.repair_transfers p.load_max p.load_p99)
    points

let csv_header =
  "geometry,bits,nodes,keys,mode,r,rq,wq,axis,churn_rate,attempted,quorum_reads,degraded_reads,failed_reads,no_client,availability,survival,analytic,alive,probe_routes,repair_routes,repair_transfers,load_max,load_mean,load_p99,events"

let to_csv_row cfg p =
  Printf.sprintf
    "%s,%d,%d,%d,%s,%d,%d,%d,%g,%s,%d,%d,%d,%d,%d,%s,%.6f,%.6f,%.6f,%d,%d,%d,%d,%.6f,%d,%d"
    (Rcm.Geometry.slug p.geometry)
    cfg.bits cfg.nodes cfg.keys (mode_tag cfg.mode) p.r p.rq p.wq p.axis
    (float_or_nan p.churn_rate "%.9g")
    p.attempted p.quorum_reads p.degraded_reads p.failed_reads p.no_client
    (float_or_nan p.availability "%.6f")
    p.survival p.analytic p.mean_alive p.probe_routes p.repair_routes
    p.repair_transfers p.load_max p.load_mean p.load_p99 p.events

let to_json cfg p =
  let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
  Printf.sprintf
    "{\"geometry\": %S, \"bits\": %d, \"nodes\": %d, \"keys\": %d, \"zipf\": %s, \
     \"mode\": %S, \"r\": %d, \"rq\": %d, \"wq\": %d, \"axis\": %s, \"churn_rate\": %s, \
     \"attempted\": %d, \"quorum_reads\": %d, \"degraded_reads\": %d, \"failed_reads\": \
     %d, \"no_client\": %d, \"availability\": %s, \"survival\": %s, \"analytic\": %s, \
     \"alive\": %s, \"probe_routes\": %d, \"repair_routes\": %d, \"repair_transfers\": \
     %d, \"load_max\": %d, \"load_mean\": %s, \"load_p99\": %d, \"events\": %d}"
    (Rcm.Geometry.slug p.geometry)
    cfg.bits cfg.nodes cfg.keys (json_float cfg.zipf_s) (mode_tag cfg.mode) p.r p.rq
    p.wq (json_float p.axis) (json_float p.churn_rate) p.attempted p.quorum_reads
    p.degraded_reads p.failed_reads p.no_client
    (json_float p.availability)
    (json_float p.survival) (json_float p.analytic) (json_float p.mean_alive)
    p.probe_routes p.repair_routes p.repair_transfers p.load_max
    (json_float p.load_mean)
    p.load_p99 p.events
