type config = {
  bits : int;
  mean_downtimes : float list;
  repair_intervals : float list;
  pairs : int;
  seed : int;
}

(* E8: sweep churn intensity (mean downtime at fixed mean uptime 8.0)
   and repair period, recording the measured stale-entry fraction,
   routability, and the static RCM prediction at q = stale fraction. *)
let default_config =
  {
    bits = 10;
    mean_downtimes = [ 0.5; 1.0; 2.0; 4.0 ];
    repair_intervals = [ 0.5; 2.0 ];
    pairs = 800;
    seed = 808;
  }

type row = {
  geometry : Rcm.Geometry.t;
  mean_downtime : float;
  repair_interval : float;
  report : Sim.Session_churn.report;
  static_sim : float;
      (** routability of a *static* failure snapshot at q = the churn
          run's measured stale fraction — isolates the static-to-churn
          mapping from the analytical model's idealisations *)
}

let run ~geometries cfg =
  List.concat_map
    (fun geometry ->
      List.concat_map
        (fun mean_downtime ->
          List.map
            (fun repair_interval ->
              let report =
                Sim.Session_churn.run
                  (Sim.Session_churn.config ~bits:cfg.bits
                     ~session:(Sim.Lifetime.exponential ~mean:8.0)
                     ~gap:(Sim.Lifetime.exponential ~mean:mean_downtime)
                     ~maintenance_interval:repair_interval
                     ~pairs_per_measurement:cfg.pairs ~seed:cfg.seed geometry)
              in
              let static_sim =
                Sim.Estimate.routability
                  (Sim.Estimate.run
                     (Sim.Estimate.config ~trials:3 ~pairs_per_trial:cfg.pairs
                        ~seed:cfg.seed ~bits:cfg.bits
                        ~q:report.Sim.Session_churn.mean_stale geometry))
              in
              { geometry; mean_downtime; repair_interval; report; static_sim })
            cfg.repair_intervals)
        cfg.mean_downtimes)
    geometries

(* How well the static *simulation* transfers — the pure bridge test. *)
let bridge_error row =
  Float.abs (row.report.Sim.Session_churn.mean_routability -. row.static_sim)

let pp_rows ppf rows =
  Fmt.pf ppf "# E8: churn vs static resilience at q = stale fraction@.";
  Fmt.pf ppf "%-10s %9s %8s %8s %8s %12s %12s %12s %8s@." "geometry" "downtime" "repair"
    "alive" "stale" "routability" "static-ana" "static-sim" "bridge";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-10s %9.2f %8.2f %8.3f %8.4f %12.4f %12.4f %12.4f %8.4f@."
        (Rcm.Geometry.slug row.geometry)
        row.mean_downtime row.repair_interval row.report.Sim.Session_churn.mean_alive
        row.report.Sim.Session_churn.mean_stale row.report.Sim.Session_churn.mean_routability
        row.report.Sim.Session_churn.mean_prediction row.static_sim (bridge_error row))
    rows
