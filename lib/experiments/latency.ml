type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config =
  { bits = 12; qs = [ 0.0; 0.1; 0.2; 0.3; 0.4 ]; trials = 3; pairs = 1_500; seed = 707 }

let chain_for geometry ~d ~q ~h =
  match geometry with
  | Rcm.Geometry.Tree -> Markov.Routing_chains.tree ~h ~q
  | Rcm.Geometry.Hypercube -> Markov.Routing_chains.hypercube ~h ~q
  | Rcm.Geometry.Xor -> Markov.Routing_chains.xor ~h ~q
  | Rcm.Geometry.Ring -> Markov.Routing_chains.ring ~h ~q
  | Rcm.Geometry.Symphony { k_n; k_s } ->
      Markov.Routing_chains.symphony ~d ~phases:h ~q ~k_n ~k_s
  | Rcm.Geometry.Record _ -> Markov.Routing_chains.xor ~h ~q

(* E7: expected hop count of *delivered* messages, as the routing
   chains predict it — E_h[ hops | success ] weighted by n(h) p(h)
   (the distance mix of successful routes). Exact for tree and
   hypercube, where one hop advances exactly one phase; an upper bound
   for XOR/ring/symphony, whose real routes can skip phases (suffix
   randomisation, suboptimal-hop progress, long shortcuts). *)
let predicted_hops geometry ~d ~q =
  let spec = Rcm.Model.spec_of_geometry geometry in
  let weighted = Numerics.Kahan.create () in
  let total = Numerics.Kahan.create () in
  (* Phases run 1 .. max_phase; for the five paper geometries that is
     d, while ReCord's digit-grouped spec stops at d/log2 h. *)
  for h = 1 to spec.Rcm.Spec.max_phase ~d do
    let routing = chain_for geometry ~d ~q ~h in
    let p = Markov.Routing_chains.success_probability routing in
    if p > 0.0 then begin
      let weight = exp (spec.Rcm.Spec.log_population ~d ~h) *. p in
      let hops = Markov.Routing_chains.expected_hops_given_success routing in
      Numerics.Kahan.add weighted (weight *. hops);
      Numerics.Kahan.add total weight
    end
  done;
  let total = Numerics.Kahan.total total in
  if total <= 0.0 then nan else Numerics.Kahan.total weighted /. total

let simulated_hops cfg geometry q =
  let result =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:cfg.trials ~pairs_per_trial:cfg.pairs ~seed:cfg.seed
         ~bits:cfg.bits ~q geometry)
  in
  Stats.Summary.mean result.Sim.Estimate.hop_summary

let geometries = Rcm.Geometry.all_default

let run_all cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf
         "E7: mean hops of delivered messages vs q, N=2^%d (chain prediction | simulation)"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun g ->
         [
           (Rcm.Geometry.slug g ^ "(chain)", fun q -> predicted_hops g ~d:cfg.bits ~q);
           (Rcm.Geometry.slug g ^ "(sim)", simulated_hops cfg g);
         ])
       geometries)
