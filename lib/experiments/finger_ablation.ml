type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config = { bits = 12; qs = Grid.fig6_q; trials = 3; pairs = 2_000; seed = 404 }

(* A4: Chord finger placement. Deterministic fingers (distance exactly
   2^i) guarantee m usable fingers at phase m, so the ring analysis is a
   true routability lower bound; randomised fingers (distance uniform in
   [2^i, 2^(i+1))) can overshoot near the destination and dip slightly
   below the deterministic curve. *)
let run cfg =
  let sim ~build q =
    Table_sim.routability ~build ~q ~trials:cfg.trials ~pairs:cfg.pairs ~seed:cfg.seed
  in
  Series.tabulate
    ~title:
      (Printf.sprintf "A4: Chord finger-placement ablation, N=2^%d (routability vs q)"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    [
      ("analysis", fun q -> Rcm.Model.routability Rcm.Geometry.Ring ~d:cfg.bits ~q);
      ( "det-fingers",
        sim ~build:(fun rng -> Overlay.Table.build ~rng ~bits:cfg.bits Rcm.Geometry.Ring) );
      ( "rand-fingers",
        sim ~build:(fun rng -> Overlay.Table.build_randomized_ring ~rng ~bits:cfg.bits ()) );
    ]
