type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config =
  { bits = 12; qs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]; trials = 4; pairs = 1_500; seed = 909 }

(* A6: the paper's model assumes *independent* failures; this ablation
   contrasts it with a correlated outage of the same magnitude — one
   contiguous block of identifiers dying together. Geometries whose
   contacts scatter uniformly over the id space (xor, hypercube, tree)
   barely notice the difference, while ring-structured geometries lose
   the short-distance fallback chains that pass through the dead block. *)
let simulate cfg geometry ~mode q =
  Sim.Trial.routability
    (Sim.Trial.repeat ~seed:cfg.seed ~trials:cfg.trials (fun rng ->
         let table = Overlay.Table.build ~rng ~bits:cfg.bits geometry in
         let n = Overlay.Table.node_count table in
         let alive =
           match mode with
           | `Independent -> Overlay.Failure.sample ~rng ~q n
           | `Block -> Overlay.Failure.sample_block ~rng ~fraction:q n
         in
         Sim.Trial.run ~table ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
             Routing.Router.route table ~rng ~alive ~src ~dst)))

let run_all cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf
         "A6: independent (iid) vs correlated (blk) failure routability, N=2^%d" cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun g ->
         [
           (Rcm.Geometry.slug g ^ "(iid)", simulate cfg g ~mode:`Independent);
           (Rcm.Geometry.slug g ^ "(blk)", simulate cfg g ~mode:`Block);
         ])
       Rcm.Geometry.all_default)
