type config = {
  bits : int;
  session_means : float list;
  session_shape : Sim.Lifetime.shape;
  gap_mean : float;
  gap_shape : Sim.Lifetime.shape;
  maintenance_interval : float;
  k : int;
  cache_k : int;
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs : int;
  seed : int;
}

let default_config =
  {
    bits = 10;
    session_means = [ 2.0; 4.0; 8.0; 16.0; 32.0 ];
    session_shape = Sim.Lifetime.Exponential;
    gap_mean = 2.0;
    gap_shape = Sim.Lifetime.Exponential;
    maintenance_interval = 1.0;
    k = 4;
    cache_k = 4;
    warmup = 20.0;
    measurements = 5;
    measurement_spacing = 2.0;
    pairs = 800;
    seed = 808;
  }

type point = {
  geometry : Rcm.Geometry.t;
  session_mean : float;
  churn_rate : float;
  availability : float;
  mean_alive : float;
  mean_stale : float;
  stale_near : float;
  stale_shortcut : float;
  routable_measurements : int;
  mean_routability : float;
  mean_prediction : float;
  no_pair_measurements : int;
  events : int;
}

let lifetime shape ~mean =
  match shape with
  | Sim.Lifetime.Exponential -> Sim.Lifetime.exponential ~mean
  | Sim.Lifetime.Pareto alpha -> Sim.Lifetime.pareto ~alpha ~mean
  | Sim.Lifetime.Weibull s -> Sim.Lifetime.weibull ~shape:s ~mean

let session_config cfg geometry ~session_mean ~seed =
  Sim.Session_churn.config ~bits:cfg.bits
    ~session:(lifetime cfg.session_shape ~mean:session_mean)
    ~gap:(lifetime cfg.gap_shape ~mean:cfg.gap_mean)
    ~maintenance_interval:cfg.maintenance_interval ~k:cfg.k ~cache_k:cfg.cache_k
    ~warmup:cfg.warmup ~measurements:cfg.measurements
    ~measurement_spacing:cfg.measurement_spacing ~pairs_per_measurement:cfg.pairs ~seed
    geometry

let mean_over f measurements =
  match measurements with
  | [] -> Float.nan
  | ms -> List.fold_left (fun acc m -> acc +. f m) 0.0 ms /. float_of_int (List.length ms)

(* The fields a point takes from the config alone; a run or a
   checkpoint record fills in the measured ones. *)
let point_at cfg (geometry, session_mean) =
  let scfg = session_config cfg geometry ~session_mean ~seed:0 in
  {
    geometry;
    session_mean;
    churn_rate = Sim.Session_churn.churn_rate scfg;
    availability = Sim.Session_churn.expected_availability scfg;
    mean_alive = Float.nan;
    mean_stale = Float.nan;
    stale_near = Float.nan;
    stale_shortcut = Float.nan;
    routable_measurements = 0;
    mean_routability = Float.nan;
    mean_prediction = Float.nan;
    no_pair_measurements = 0;
    events = 0;
  }

let run_point cfg ((geometry, session_mean) as coords) ~seed =
  let report =
    Obs.Trace.span "churn/point"
      ~attrs:
        (if Obs.Trace.enabled () then
           [
             ("geometry", Obs.Trace.String (Rcm.Geometry.slug geometry));
             ("session_mean", Obs.Trace.Float session_mean);
           ]
         else [])
      (fun () -> Sim.Session_churn.run (session_config cfg geometry ~session_mean ~seed))
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.observe_named "churn/events"
      (float_of_int report.Sim.Session_churn.events_processed);
  let ms = report.measurements in
  {
    (point_at cfg coords) with
    mean_alive = report.mean_alive;
    mean_stale = report.mean_stale;
    stale_near = mean_over (fun m -> m.Sim.Session_churn.stale_near) ms;
    stale_shortcut = mean_over (fun m -> m.Sim.Session_churn.stale_shortcut) ms;
    routable_measurements = List.length ms - report.no_pair_measurements;
    mean_routability = report.mean_routability;
    mean_prediction = report.mean_prediction;
    no_pair_measurements = report.no_pair_measurements;
    events = report.events_processed;
  }

let codec cfg =
  let open Obs.Tiny_json in
  let int = Sim.Checkpoint.int in
  {
    Sim.Sweep.kind = "churn";
    key =
      (fun (geometry, session_mean) ~seed ->
        [
          ("geometry", Str (Rcm.Geometry.slug geometry));
          ("bits", int cfg.bits);
          ("session", Str (Sim.Lifetime.shape_to_string cfg.session_shape));
          ("session_mean", Num session_mean);
          ("gap", Str (Sim.Lifetime.shape_to_string cfg.gap_shape));
          ("gap_mean", Num cfg.gap_mean);
          ("maintain", Num cfg.maintenance_interval);
          ("k", int cfg.k);
          ("cache_k", int cfg.cache_k);
          ("warmup", Num cfg.warmup);
          ("measurements", int cfg.measurements);
          ("spacing", Num cfg.measurement_spacing);
          ("pairs", int cfg.pairs);
          ("seed", int seed);
        ]);
    encode =
      (fun p ->
        [
          ("alive", Num p.mean_alive);
          ("stale", Num p.mean_stale);
          ("stale_near", Num p.stale_near);
          ("stale_shortcut", Num p.stale_shortcut);
          ("routable", int p.routable_measurements);
          (* nan (no measurement found a pair) exactly when routable = 0 *)
          ("routability", Num p.mean_routability);
          ("prediction", Num p.mean_prediction);
          ("no_pairs", int p.no_pair_measurements);
          ("events", int p.events);
        ]);
    decode =
      (fun coords f ->
        let open Sim.Checkpoint in
        let routable = get_int f "routable" in
        {
          (point_at cfg coords) with
          mean_alive = get_float f "alive";
          mean_stale = get_float f "stale";
          stale_near = get_float f "stale_near";
          stale_shortcut = get_float f "stale_shortcut";
          routable_measurements = routable;
          mean_routability = (if routable > 0 then get_float f "routability" else Float.nan);
          mean_prediction = get_float f "prediction";
          no_pair_measurements = get_int f "no_pairs";
          events = get_int f "events";
        });
  }

let default_geometries = Rcm.Geometry.all_default

(* Every point's engine config is built once here, so a bad value fails
   before any point runs rather than inside a supervised (retried)
   point task. *)
let validate ?(geometries = default_geometries) cfg =
  if cfg.session_means = [] then invalid_arg "Churn_curves: empty session sweep";
  List.iter
    (fun geometry ->
      List.iter
        (fun session_mean -> ignore (session_config cfg geometry ~session_mean ~seed:0))
        cfg.session_means)
    geometries

let run ?pool ?(geometries = default_geometries) ?retries ?fault ?checkpoint cfg =
  validate ~geometries cfg;
  let grid =
    List.concat_map (fun g -> List.map (fun mean -> (g, mean)) cfg.session_means) geometries
  in
  Sim.Sweep.points ?pool ?retries ?fault
    ?checkpoint:(Option.map (fun ck -> (ck, codec cfg)) checkpoint)
    ~label:"churn"
    ~group:(fun (g, _) -> Rcm.Geometry.slug g)
    ~describe:(fun (g, mean) -> Printf.sprintf "%s, session %g" (Rcm.Geometry.slug g) mean)
    ~seed:cfg.seed grid (run_point cfg)

(* --- rendering -------------------------------------------------------------- *)

let float_or_nan v tag = if Float.is_finite v then Printf.sprintf tag v else "nan"

let pp_points ppf points =
  Fmt.pf ppf "# steady-state churn: routability vs churn rate, static r(N,q) at q = stale@.";
  Fmt.pf ppf "%-10s %9s %10s %7s %7s %8s %12s %12s %9s@." "geometry" "session" "churn-rate"
    "avail" "alive" "stale" "routability" "prediction" "no-pairs";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-10s %9g %10.5f %7.3f %7.3f %8.4f %12s %12.4f %9d@."
        (Rcm.Geometry.slug p.geometry)
        p.session_mean p.churn_rate p.availability p.mean_alive p.mean_stale
        (float_or_nan p.mean_routability "%12.4f")
        p.mean_prediction p.no_pair_measurements)
    points

let csv_header =
  "geometry,bits,session_mean,churn_rate,availability,alive,stale,stale_near,stale_shortcut,routability,prediction,no_pair_measurements,events"

let to_csv_row cfg p =
  Printf.sprintf "%s,%d,%g,%.9g,%.6f,%.6f,%.6f,%.6f,%.6f,%s,%.6f,%d,%d"
    (Rcm.Geometry.slug p.geometry)
    cfg.bits p.session_mean p.churn_rate p.availability p.mean_alive p.mean_stale
    p.stale_near p.stale_shortcut
    (float_or_nan p.mean_routability "%.6f")
    p.mean_prediction p.no_pair_measurements p.events

let to_json cfg p =
  let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
  Printf.sprintf
    "{\"geometry\": %S, \"bits\": %d, \"session_mean\": %s, \"session\": %S, \"gap_mean\": \
     %s, \"gap\": %S, \"churn_rate\": %s, \"availability\": %s, \"alive\": %s, \"stale\": \
     %s, \"stale_near\": %s, \"stale_shortcut\": %s, \"routability\": %s, \"prediction\": \
     %s, \"no_pair_measurements\": %d, \"events\": %d}"
    (Rcm.Geometry.slug p.geometry)
    cfg.bits (json_float p.session_mean)
    (Sim.Lifetime.shape_to_string cfg.session_shape)
    (json_float cfg.gap_mean)
    (Sim.Lifetime.shape_to_string cfg.gap_shape)
    (json_float p.churn_rate) (json_float p.availability) (json_float p.mean_alive)
    (json_float p.mean_stale) (json_float p.stale_near) (json_float p.stale_shortcut)
    (json_float p.mean_routability) (json_float p.mean_prediction) p.no_pair_measurements
    p.events
