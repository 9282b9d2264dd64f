type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config =
  { bits = 12; qs = Grid.fig6_q; trials = 3; pairs = 2_000; seed = 4242 }

(* A1: for each geometry and failure level, measure pair-connectivity
   (percolation ceiling) and routability on the same failed overlays,
   one Percolation.run per grid point. The gap is the quantity the
   paper's introduction argues percolation theory cannot see. Trial
   seeds do not depend on q, so one cache serves the whole sweep:
   overlay builds drop from |qs| × trials to trials. *)
let run ?pool cfg geometry =
  let cache = Overlay.Table_cache.create () in
  let reports =
    List.map
      (fun q ->
        Sim.Percolation.run ?pool ~cache ~trials:cfg.trials ~pairs:cfg.pairs
          ~seed:cfg.seed ~bits:cfg.bits ~q geometry)
      cfg.qs
  in
  Series.create
    ~title:
      (Printf.sprintf "A1 connectivity vs routability: %s, N=2^%d"
         (Rcm.Geometry.slug geometry) cfg.bits)
    ~x_label:"q"
    ~x:(Array.of_list cfg.qs)
    [
      Series.column ~label:"connectivity"
        (Array.of_list (List.map (fun r -> r.Sim.Percolation.mean_pair_connectivity) reports));
      Series.column ~label:"giant"
        (Array.of_list (List.map (fun r -> r.Sim.Percolation.mean_giant_fraction) reports));
      Series.column ~label:"routability"
        (Array.of_list (List.map (fun r -> r.Sim.Percolation.mean_routability) reports));
      Series.column ~label:"gap"
        (Array.of_list (List.map Sim.Percolation.routing_gap reports));
    ]
