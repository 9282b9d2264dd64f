type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config =
  { bits = 12; qs = Grid.fig6_q; trials = 3; pairs = 1_500; seed = 131 }

(* A9: the paper analyses Symphony's *basic* unidirectional geometry;
   the deployed protocol is bidirectional (links usable from both
   endpoints, near neighbours on both sides). The comparison is run at
   matched k_n and k_s — the bidirectional node then has about twice
   the usable degree, which is precisely the deployment's point. *)

let simulate_unidirectional cfg ~k_n ~k_s q =
  Table_sim.routability
    ~build:(fun rng ->
      Overlay.Table.build ~rng ~bits:cfg.bits (Rcm.Geometry.Symphony { k_n; k_s }))
    ~q ~trials:cfg.trials ~pairs:cfg.pairs ~seed:cfg.seed

let simulate_bidirectional cfg ~k_n ~k_s q =
  Sim.Trial.routability
    (Sim.Trial.repeat ~seed:cfg.seed ~trials:cfg.trials (fun rng ->
         let table =
           Overlay.Table.build_symphony_bidirectional ~rng ~bits:cfg.bits ~k_n ~k_s ()
         in
         let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
         Sim.Trial.run ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
             Routing.Bidirectional_ring.route table ~alive ~src ~dst)))

let run ?(k_n = 1) ?(k_s = 1) cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf
         "A9: Symphony basic geometry vs deployed protocol, N=2^%d, k_n=%d, k_s=%d"
         cfg.bits k_n k_s)
    ~x_label:"q" ~x:cfg.qs
    [
      ( "analysis(uni)",
        fun q -> Rcm.Model.routability (Rcm.Geometry.Symphony { k_n; k_s }) ~d:cfg.bits ~q );
      ("sim(uni)", simulate_unidirectional cfg ~k_n ~k_s);
      ("sim(bidir)", simulate_bidirectional cfg ~k_n ~k_s);
    ]
