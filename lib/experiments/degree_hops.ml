(* E13: the degree / hop-count tradeoff across a list of geometries.
   One row per geometry, x = per-node routing-table size (entries),
   against the mean delivered hop count — chain-predicted and
   simulated — plus the measured routability. The canonical use is the
   ReCord base sweep (record:h=2,4,16,...), where raising the digit
   base buys shorter routes with fatter tables along the Pastry design
   axis; the module itself is geometry-agnostic and works for any mix
   of geometries. Rows are sorted by
   degree so the series reads as a tradeoff curve. *)

type config = { bits : int; q : float; trials : int; pairs : int; seed : int }

let default_config = { bits = 12; q = 0.1; trials = 3; pairs = 1_500; seed = 1303 }

(* 8 bits, not 10: digit geometries need the group width to divide
   bits, and 8 admits groups 1, 2 and 4 (record:h up to 16). *)
let quick_config = { default_config with bits = 8; pairs = 500 }

type row = {
  geometry : Rcm.Geometry.t;
  degree : int;
  chain_hops : float;
  sim_hops : float;
  routability : float;
}

let measure_row cfg geometry =
  let degree =
    let table = Overlay.Table.build ~bits:cfg.bits geometry in
    Array.length (Overlay.Table.neighbors table 0)
  in
  let result =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:cfg.trials ~pairs_per_trial:cfg.pairs ~seed:cfg.seed
         ~bits:cfg.bits ~q:cfg.q geometry)
  in
  let routability =
    match result.Sim.Estimate.ci with
    | Some ci -> Stats.Binomial_ci.point ci
    | None -> Float.nan
  in
  {
    geometry;
    degree;
    chain_hops = Latency.predicted_hops geometry ~d:cfg.bits ~q:cfg.q;
    sim_hops = Stats.Summary.mean result.Sim.Estimate.hop_summary;
    routability;
  }

let rows cfg geometries =
  List.map (measure_row cfg) geometries
  |> List.sort (fun a b -> compare (a.degree, Rcm.Geometry.slug a.geometry) (b.degree, Rcm.Geometry.slug b.geometry))

let run cfg geometries =
  let rows = rows cfg geometries in
  let arr f = Array.of_list (List.map f rows) in
  Series.create
    ~title:
      (Printf.sprintf
         "E13: degree vs delivered hops at N=2^%d, q=%.2f [%s]" cfg.bits cfg.q
         (String.concat ", " (List.map (fun r -> Rcm.Geometry.slug r.geometry) rows)))
    ~x_label:"degree"
    ~x:(arr (fun r -> float_of_int r.degree))
    [
      Series.column ~label:"hops(chain)" (arr (fun r -> r.chain_hops));
      Series.column ~label:"hops(sim)" (arr (fun r -> r.sim_hops));
      Series.column ~label:"routability" (arr (fun r -> r.routability));
    ]
