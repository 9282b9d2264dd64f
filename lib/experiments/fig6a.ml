type config = {
  bits : int;
  qs : float list;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

(* The paper's setting: N = 2^16 nodes, failure probability swept to
   0.5, simulation percentages estimated over sampled pairs. *)
let default_config =
  { bits = 16; qs = Grid.fig6_q; trials = 3; pairs_per_trial = 2_000; seed = 1006 }

let quick_config =
  { bits = 10; qs = Grid.fig6_q; trials = 2; pairs_per_trial = 500; seed = 1006 }

(* Fig. 6(a) compares tree, hypercube and XOR; ring is split out into
   Fig. 6(b) because its analysis is only a bound. *)
let geometries = [ Rcm.Geometry.Tree; Rcm.Geometry.Hypercube; Rcm.Geometry.Xor ]

let estimate_config cfg geometry =
  Sim.Estimate.config ~trials:cfg.trials ~pairs_per_trial:cfg.pairs_per_trial ~seed:cfg.seed
    ~bits:cfg.bits ~q:0.0 geometry

let analysis_label geometry = Rcm.Geometry.slug geometry ^ "(ana)"

let simulation_label geometry = Rcm.Geometry.slug geometry ^ "(sim)"

(* One simulated column over the whole q grid: the sweep runs all
   |qs| × trials grid points as one task batch (parallel under [pool])
   and, because trial seeds do not depend on q, builds each trial's
   overlay once for the whole column instead of once per point. *)
let simulation_values ?pool ?cache cfg geometry =
  let cache =
    match cache with Some c -> c | None -> Overlay.Table_cache.create ()
  in
  Sim.Estimate.run_sweep ?pool ~cache (estimate_config cfg geometry) cfg.qs
  |> List.map (fun (_, r) -> Sim.Estimate.failed_percent r)
  |> Array.of_list

let analysis_values cfg geometry =
  Array.of_list
    (List.map (fun q -> Rcm.Model.failed_paths_percent geometry ~d:cfg.bits ~q) cfg.qs)

let run ?pool cfg =
  let cache = Overlay.Table_cache.create () in
  Series.create
    ~title:
      (Printf.sprintf "Fig 6(a): %% failed paths vs q, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:(Array.of_list cfg.qs)
    (List.concat_map
       (fun g ->
         [
           Series.column ~label:(analysis_label g) (analysis_values cfg g);
           Series.column ~label:(simulation_label g) (simulation_values ?pool ~cache cfg g);
         ])
       geometries)
