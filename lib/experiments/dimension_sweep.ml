type config = {
  configurations : (int * int) list;  (** (dim, side) with side^dim = N *)
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

(* A8: CAN's design knob. All configurations have N = 2^12 zones; the
   paper's hypercube is (12, 2). Lower dimensions mean longer paths
   with fewer alternatives per hop, hence worse static resilience —
   matching Gummadi et al.'s observation that geometry, not just
   degree, drives resilience. *)
let default_config =
  {
    configurations = [ (2, 64); (3, 16); (4, 8); (6, 4); (12, 2) ];
    qs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
    trials = 3;
    pairs = 1_500;
    seed = 121;
  }

let simulate cfg ~dim ~side q =
  let table = Overlay.Torus.build ~dim ~side in
  Sim.Trial.routability
    (Sim.Trial.repeat ~seed:cfg.seed ~trials:cfg.trials (fun rng ->
         let alive = Overlay.Failure.sample ~rng ~q (Overlay.Torus.node_count table) in
         Sim.Trial.run ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
             Routing.Torus_router.route table ~rng ~alive ~src ~dst)))

let label ~dim ~side suffix = Printf.sprintf "%dx%d(%s)" dim side suffix

let run cfg =
  Series.tabulate
    ~title:"A8: CAN dimension sweep at fixed N — routability (sim) with RCM sandwich bounds"
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun (dim, side) ->
         [
           (label ~dim ~side "lo", fun q -> Rcm.Torus_bounds.routability_lower ~dim ~side ~q);
           (label ~dim ~side "sim", simulate cfg ~dim ~side);
           (label ~dim ~side "up", fun q -> Rcm.Torus_bounds.routability_upper ~dim ~side ~q);
         ])
       cfg.configurations)
