(* Operations planning under churn: how often must nodes maintain their
   routing tables to keep lookup availability above a target?

   The static RCM analysis answers "what stale fraction can the
   geometry absorb"; the session-churn simulator connects the
   maintenance interval to the resulting stale-entry fraction, closing
   the loop the paper's introduction sketches (fast detection, slow
   repair).

   Run with:  dune exec examples/churn_study.exe *)

let target = 0.95

let geometry = Rcm.Geometry.Xor

let bits = 10

(* Kademlia bucket capacity: one contact per bucket, the paper's XOR
   table. The static tolerance below uses the same k-bucket closed form
   as the simulator's prediction column. *)
let k = 1

(* Session dynamics: nodes stay up 8 time units on average and return
   after 2 — an aggressive 20% steady-state down fraction. *)
let mean_uptime = 8.0

let mean_downtime = 2.0

let () =
  Fmt.pr "Churn study for %a (k = %d) at N = 2^%d: keep routability >= %.2f@.@."
    Rcm.Geometry.pp geometry k bits target;
  Fmt.pr "Session model: mean uptime %.1f, mean downtime %.1f (%.0f%% down at steady state)@.@."
    mean_uptime mean_downtime
    (100.0 *. mean_downtime /. (mean_uptime +. mean_downtime));

  (* 1. Static question: what stale fraction can the geometry absorb? *)
  let tolerable_q =
    let rec bisect lo hi i =
      if i = 0 then lo
      else begin
        let mid = (lo +. hi) /. 2.0 in
        if Rcm.Replication.routability_xor ~d:bits ~q:mid ~k >= target then bisect mid hi (i - 1)
        else bisect lo mid (i - 1)
      end
    in
    bisect 0.0 1.0 40
  in
  Fmt.pr "Static analysis: routability stays above %.2f while stale fraction <= %.4f@.@."
    target tolerable_q;

  (* 2. Dynamic question: which maintenance interval achieves that
     stale fraction under the session model? *)
  Fmt.pr "%10s %10s %14s %12s %s@." "maintain" "stale" "routability" "static-pred"
    "meets target";
  let chosen = ref None in
  List.iter
    (fun maintenance_interval ->
      let report =
        Sim.Session_churn.run
          (Sim.Session_churn.config ~bits
             ~session:(Sim.Lifetime.exponential ~mean:mean_uptime)
             ~gap:(Sim.Lifetime.exponential ~mean:mean_downtime)
             ~maintenance_interval ~k ~warmup:25.0 ~measurements:5
             ~pairs_per_measurement:1_000 ~seed:31 geometry)
      in
      let stale = report.Sim.Session_churn.mean_stale in
      let ok = report.Sim.Session_churn.mean_routability >= target in
      if ok && !chosen = None then chosen := Some (maintenance_interval, stale);
      Fmt.pr "%10.2f %10.4f %14.4f %12.4f %b@." maintenance_interval stale
        report.Sim.Session_churn.mean_routability report.Sim.Session_churn.mean_prediction ok)
    [ 8.0; 4.0; 2.0; 1.0; 0.5; 0.25 ];
  match !chosen with
  | Some (interval, stale) ->
      Fmt.pr
        "@.Maintaining every %.2f time units (%.1f%% of a mean session) meets the target.@."
        interval
        (100.0 *. interval /. mean_uptime);
      Fmt.pr "Cross-check: stale fraction %.4f there, static tolerance %.4f (%s).@." stale
        tolerable_q
        (if stale <= tolerable_q then "within"
         else "exceeded: the simulation beats the closed form")
  | None -> Fmt.pr "@.No tested maintenance interval meets the target; add replication (A5).@."
