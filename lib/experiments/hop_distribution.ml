type config = { bits : int; q : float; trials : int; pairs : int; seed : int }

let default_config = { bits = 10; q = 0.2; trials = 3; pairs = 4_000; seed = 151 }

(* E9: the full pmf of delivered hop counts. The chain prediction mixes
   the per-distance absorption-time distributions over the distance mix
   of successful routes, n(h) p(h); exact for tree and hypercube, an
   upper-bounding shift for the phase-skipping geometries (as in E7). *)
let predicted geometry ~d ~q =
  let spec = Rcm.Model.spec_of_geometry geometry in
  let mix = Array.make (4 * d) 0.0 in
  let total = ref 0.0 in
  (* Phases run 1 .. max_phase: d for the five built-ins, d/group for
     digit-grouped custom specs. *)
  for h = 1 to spec.Rcm.Spec.max_phase ~d do
    let routing = Latency.chain_for geometry ~d ~q ~h in
    let p = Markov.Routing_chains.success_probability routing in
    if p > 0.0 then begin
      let weight = exp (spec.Rcm.Spec.log_population ~d ~h) *. p in
      let pmf = Markov.Routing_chains.hop_distribution_given_success routing in
      Array.iteri
        (fun hops mass ->
          if hops < Array.length mix then mix.(hops) <- mix.(hops) +. (weight *. mass))
        pmf;
      total := !total +. weight
    end
  done;
  if !total <= 0.0 then [||] else Array.map (fun m -> m /. !total) mix

let simulated cfg geometry =
  let histogram = Stats.Histogram.create ~buckets:(4 * cfg.bits) in
  Sim.Trial.repeat ~seed:cfg.seed ~trials:cfg.trials (fun rng ->
      let table = Overlay.Table.build ~rng ~bits:cfg.bits geometry in
      let alive = Overlay.Failure.sample ~rng ~q:cfg.q (Overlay.Table.node_count table) in
      Sim.Trial.run ~table ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
          Routing.Router.route table ~rng ~alive ~src ~dst))
  |> List.iter (fun (t : Sim.Trial.t) ->
         Array.iteri (Stats.Histogram.add_many histogram) t.hop_counts);
  Stats.Histogram.to_fractions histogram

let pad target xs =
  Array.init target (fun i -> if i < Array.length xs then xs.(i) else 0.0)

let run cfg geometry =
  let chain = predicted geometry ~d:cfg.bits ~q:cfg.q in
  let sim = simulated cfg geometry in
  let n = max (Array.length chain) (Array.length sim) in
  Series.create
    ~title:
      (Printf.sprintf "E9 (%s): delivered hop-count pmf at N=2^%d, q=%.2f — chain vs simulation"
         (Rcm.Geometry.slug geometry) cfg.bits cfg.q)
    ~x_label:"hops"
    ~x:(Array.init n float_of_int)
    [
      Series.column ~label:"chain" (pad n chain);
      Series.column ~label:"sim" (pad n sim);
    ]
