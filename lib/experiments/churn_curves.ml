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

(* Per-point PRNG discipline, exactly the [Estimate.trial_seeds]
   pattern: point i of the (geometry-major) task grid runs on a seed
   derived by index from one master stream, so points execute on any
   domain in any order and still draw the same values. Masked to 48
   bits because the seed is part of the checkpoint key and must
   round-trip exactly through the JSON number parser (doubles are exact
   only below 2^53). *)
let point_seeds cfg ~tasks =
  let master = Prng.Splitmix.create ~seed:cfg.seed in
  Array.init tasks (fun _ ->
      Int64.to_int (Prng.Splitmix.next_int64 master) land 0xFFFF_FFFF_FFFF)

let churn_key cfg geometry ~session_mean ~seed =
  {
    Sim.Checkpoint.c_geometry = Rcm.Geometry.slug geometry;
    c_bits = cfg.bits;
    c_session = Sim.Lifetime.shape_to_string cfg.session_shape;
    c_session_mean = session_mean;
    c_gap = Sim.Lifetime.shape_to_string cfg.gap_shape;
    c_gap_mean = cfg.gap_mean;
    c_maintain = cfg.maintenance_interval;
    c_k = cfg.k;
    c_cache_k = cfg.cache_k;
    c_warmup = cfg.warmup;
    c_measurements = cfg.measurements;
    c_spacing = cfg.measurement_spacing;
    c_pairs = cfg.pairs;
    c_seed = seed;
  }

let mean_over f measurements =
  match measurements with
  | [] -> Float.nan
  | ms -> List.fold_left (fun acc m -> acc +. f m) 0.0 ms /. float_of_int (List.length ms)

let summarize (report : Sim.Session_churn.report) =
  let ms = report.measurements in
  {
    Sim.Checkpoint.p_mean_alive = report.mean_alive;
    p_mean_stale = report.mean_stale;
    p_stale_near = mean_over (fun m -> m.Sim.Session_churn.stale_near) ms;
    p_stale_shortcut = mean_over (fun m -> m.Sim.Session_churn.stale_shortcut) ms;
    p_routable_measurements = List.length ms - report.no_pair_measurements;
    p_mean_routability = report.mean_routability;
    p_mean_prediction = report.mean_prediction;
    p_no_pair_measurements = report.no_pair_measurements;
    p_events = report.events_processed;
  }

let point_of_stored cfg geometry ~session_mean (p : Sim.Checkpoint.churn_point) =
  let scfg = session_config cfg geometry ~session_mean ~seed:0 in
  {
    geometry;
    session_mean;
    churn_rate = Sim.Session_churn.churn_rate scfg;
    availability = Sim.Session_churn.expected_availability scfg;
    mean_alive = p.Sim.Checkpoint.p_mean_alive;
    mean_stale = p.p_mean_stale;
    stale_near = p.p_stale_near;
    stale_shortcut = p.p_stale_shortcut;
    routable_measurements = p.p_routable_measurements;
    mean_routability = p.p_mean_routability;
    mean_prediction = p.p_mean_prediction;
    no_pair_measurements = p.p_no_pair_measurements;
    events = p.p_events;
  }

let run_point cfg geometry ~session_mean ~seed =
  let t0 = if Obs.Metrics.enabled () then Unix.gettimeofday () else 0.0 in
  let report = Sim.Session_churn.run (session_config cfg geometry ~session_mean ~seed) in
  if Obs.Metrics.enabled () then begin
    let elapsed = Unix.gettimeofday () -. t0 in
    Obs.Metrics.incr_named "churn/points";
    Obs.Metrics.observe_named "churn/point_s" elapsed;
    Obs.Metrics.observe_named "churn/events"
      (float_of_int report.Sim.Session_churn.events_processed)
  end;
  summarize report

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

let run ?pool ?(geometries = default_geometries) ?(retries = 0) ?fault ?checkpoint cfg =
  validate ~geometries cfg;
  if retries < 0 then invalid_arg "Churn_curves.run: negative retries";
  let geoms = Array.of_list geometries in
  let means = Array.of_list cfg.session_means in
  let per_geom = Array.length means in
  let n = Array.length geoms * per_geom in
  let seeds = point_seeds cfg ~tasks:n in
  Obs.Progress.start ~label:"churn"
    ~groups:
      (Array.to_list (Array.map (fun g -> (Rcm.Geometry.slug g, per_geom)) geoms))
    ~total:n ();
  let tick i = Obs.Progress.tick ~group:(Rcm.Geometry.slug geoms.(i / per_geom)) () in
  let run_one i =
    let geometry = geoms.(i / per_geom) in
    let session_mean = means.(i mod per_geom) in
    let seed = seeds.(i) in
    let key = churn_key cfg geometry ~session_mean ~seed in
    let stored = Option.bind checkpoint (fun ck -> Sim.Checkpoint.find_churn ck key) in
    match stored with
    | Some p ->
        tick i;
        Exec.Pool.Done p
    | None ->
        let task ~attempt i =
          Exec.Fault.inject fault ~task:i ~attempt;
          run_point cfg geometry ~session_mean ~seed
        in
        let outcome = Exec.Pool.supervised ~retries ~task i in
        (match (checkpoint, outcome) with
        | Some ck, Exec.Pool.Done p -> Sim.Checkpoint.record_churn ck key p
        | (Some _ | None), _ -> ());
        (match outcome with
        | Exec.Pool.Cancelled -> ()
        | Exec.Pool.Done _ | Exec.Pool.Failed _ -> tick i);
        outcome
  in
  let outcomes =
    match pool with
    | Some pool when Exec.Pool.size pool > 1 -> Exec.Pool.map pool n run_one
    | Some _ | None -> Array.init n run_one
  in
  Option.iter Sim.Checkpoint.flush checkpoint;
  Obs.Progress.finish ();
  if Array.exists (function Exec.Pool.Cancelled -> true | _ -> false) outcomes then
    raise Exec.Cancel.Cancelled;
  (* A point that exhausted its retries aborts the sweep: unlike the
     trial-level estimator there is no partial statistic to salvage —
     each point *is* the statistic. *)
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Exec.Pool.Failed { attempts; error } ->
          failwith
            (Printf.sprintf "churn point %d (%s, session %g) failed after %d attempts: %s"
               i
               (Rcm.Geometry.slug geoms.(i / per_geom))
               means.(i mod per_geom) attempts error)
      | Exec.Pool.Done _ | Exec.Pool.Cancelled -> ())
    outcomes;
  List.init n (fun i ->
      let geometry = geoms.(i / per_geom) in
      let session_mean = means.(i mod per_geom) in
      match outcomes.(i) with
      | Exec.Pool.Done p -> point_of_stored cfg geometry ~session_mean p
      | Exec.Pool.Failed _ | Exec.Pool.Cancelled -> assert false)

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
