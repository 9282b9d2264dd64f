(* churn: an [Experiments.Churn_curves] sweep over all five geometries.
   It is the only workload that runs [Sim.Session_churn], its
   [Event_queue], [Kbucket] maintenance and the scalar [Router] over
   mutable rows, so it must not move when the batch path or the flat
   overlay is optimised. One operation is one simulation event. *)

let config ~seed =
  { Experiments.Churn_curves.default_config with bits = 11; seed }

type point = {
  geometry : Rcm.Geometry.t;
  session_mean : float;
  events : int;
  mean_alive : float;
  mean_routability : float;
}

let same a b =
  Rcm.Geometry.equal a.geometry b.geometry
  && Wl.same_float a.session_mean b.session_mean
  && a.events = b.events
  && Wl.same_float a.mean_alive b.mean_alive
  && Wl.same_float a.mean_routability b.mean_routability

let geometries = Experiments.Churn_curves.default_geometries

let untraced cfg =
  Experiments.Churn_curves.run ~geometries cfg
  |> List.map (fun (p : Experiments.Churn_curves.point) ->
         {
           geometry = p.geometry;
           session_mean = p.session_mean;
           events = p.events;
           mean_alive = p.mean_alive;
           mean_routability = p.mean_routability;
         })

let lifetime shape ~mean =
  match shape with
  | Sim.Lifetime.Exponential -> Sim.Lifetime.exponential ~mean
  | Sim.Lifetime.Pareto alpha -> Sim.Lifetime.pareto ~alpha ~mean
  | Sim.Lifetime.Weibull s -> Sim.Lifetime.weibull ~shape:s ~mean

(* The same points, one [Session_churn.run] each, on the seeds
   [Churn_curves] derives: point i of the geometry-major grid runs on
   the i-th master-stream output masked to 48 bits. *)
let traced (cfg : Experiments.Churn_curves.config) spans =
  let master = Prng.Splitmix.create ~seed:cfg.seed in
  List.concat_map
    (fun g ->
      List.map
        (fun session_mean ->
          let seed = Int64.to_int (Prng.Splitmix.next_int64 master) land 0xFFFF_FFFF_FFFF in
          let scfg =
            Sim.Session_churn.config ~bits:cfg.bits
              ~session:(lifetime cfg.session_shape ~mean:session_mean)
              ~gap:(lifetime cfg.gap_shape ~mean:cfg.gap_mean)
              ~maintenance_interval:cfg.maintenance_interval ~k:cfg.k ~cache_k:cfg.cache_k
              ~warmup:cfg.warmup ~measurements:cfg.measurements
              ~measurement_spacing:cfg.measurement_spacing ~pairs_per_measurement:cfg.pairs ~seed g
          in
          let report =
            Spans.geo_span spans ~metric:"sim.session_churn_s" g "sim/session_churn" (fun () ->
                Sim.Session_churn.run scfg)
          in
          {
            geometry = g;
            session_mean;
            events = report.events_processed;
            mean_alive = report.mean_alive;
            mean_routability = report.mean_routability;
          })
        cfg.session_means)
    geometries

(* Timing-independent sanity of each steady state: the measured alive
   fraction sits near the renewal-theory availability
   session / (session + gap), and routability is a probability. *)
let checks (cfg : Experiments.Churn_curves.config) points =
  List.concat_map
    (fun p ->
      let name what = Printf.sprintf "churn.%s.%s.session=%g" what (Rcm.Geometry.name p.geometry) p.session_mean in
      let expected = p.session_mean /. (p.session_mean +. cfg.gap_mean) in
      [
        Wl.check (name "alive") (Float.abs (p.mean_alive -. expected) <= 0.05);
        Wl.check (name "routability")
          (Float.is_finite p.mean_routability && p.mean_routability >= 0. && p.mean_routability <= 1.);
        Wl.check (name "events") (p.events > 0);
      ])
    points

let make ~seed =
  let cfg = config ~seed in
  Wl.Workload
    {
      setup = (fun _ -> ());
      first = (fun () -> (untraced cfg, []));
      run = (fun () -> untraced cfg);
      run_traced = traced cfg;
      ops = List.fold_left (fun n p -> n + p.events) 0;
      diff = Wl.list_diff same;
      checks = checks cfg;
      counts =
        (fun points _ ->
          Wl.per_geometry "sim.events" geometries (fun g ->
              List.fold_left
                (fun n p -> if Rcm.Geometry.equal p.geometry g then n + p.events else n)
                0 points
              |> float_of_int));
    }
