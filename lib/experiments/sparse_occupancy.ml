type config = {
  nodes : int;
  bits_list : int list;
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

(* E6: hold the population fixed at 2^10 nodes and grow the identifier
   space from fully populated (d = 10) to 1.5%-occupied (d = 16). *)
let default_config =
  {
    nodes = 1 lsl 10;
    bits_list = [ 10; 12; 14; 16 ];
    qs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
    trials = 3;
    pairs = 1_500;
    seed = 606;
  }

let effective_bits cfg = Idspace.Id.floor_log2 cfg.nodes

(* One simulated column over the q grid, flattened into |qs| × trials
   tasks (parallel under [pool]); per-q sums reduce in trial order, so
   values are bit-identical to the sequential sweep. *)
let simulate_sweep ?pool cfg geometry ~bits qs =
  Sim.Sweep.grid ?pool
    ~label:(Printf.sprintf "sparse %s d=%d" (Rcm.Geometry.slug geometry) bits)
    ~name:(Printf.sprintf "q=%g") ~seed:cfg.seed ~trials:cfg.trials qs (fun q build_seed ->
      let rng = Prng.Splitmix.of_int64 build_seed in
      let overlay = Overlay.Sparse.build ~rng ~bits ~nodes:cfg.nodes geometry in
      let alive = Overlay.Failure.sample ~rng ~q cfg.nodes in
      Sim.Trial.run ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
          Routing.Sparse_router.route overlay ~alive ~src ~dst))
  |> List.map Sim.Trial.routability
  |> Array.of_list

(* The paper assumes fully-populated spaces and argues results for real
   (sparse) DHTs "can be similarly derived": this table tests the
   natural conjecture that routability depends on the population size
   (through path lengths ~ log2 N), not on the raw id-space size, by
   pairing each sparse simulation with the fully-populated analysis at
   d_eff = log2 nodes. *)
let run ?pool cfg geometry =
  let d_eff = effective_bits cfg in
  Series.create
    ~title:
      (Printf.sprintf
         "E6 (%s): sparse-space routability, %d nodes in growing id spaces"
         (Rcm.Geometry.slug geometry) cfg.nodes)
    ~x_label:"q" ~x:(Array.of_list cfg.qs)
    (Series.column
       ~label:(Printf.sprintf "ana(d=%d)" d_eff)
       (Array.of_list (List.map (fun q -> Rcm.Model.routability geometry ~d:d_eff ~q) cfg.qs))
    :: List.map
         (fun bits ->
           Series.column
             ~label:(Printf.sprintf "sim(d=%d)" bits)
             (simulate_sweep ?pool cfg geometry ~bits cfg.qs))
         cfg.bits_list)
