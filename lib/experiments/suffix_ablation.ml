type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

let default_config = { bits = 12; qs = Grid.fig6_q; trials = 3; pairs = 2_000; seed = 303 }

(* A3: what the XOR chain of Fig. 5(b) actually models. With
   suffix-preserving bucket contacts (each contact differs in exactly
   one bit) the chain's assumptions hold and simulated routability sits
   on or above the analysis; with Kademlia's randomised suffixes each
   hop re-randomises the low-order bits, routing visits more phases than
   the chain accounts for, and routability drops below the analysis. *)
let run cfg =
  let sim ~build q =
    Table_sim.routability ~build ~q ~trials:cfg.trials ~pairs:cfg.pairs ~seed:cfg.seed
  in
  Series.tabulate
    ~title:
      (Printf.sprintf "A3: XOR bucket-suffix ablation, N=2^%d (routability vs q)" cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    [
      ("analysis", fun q -> Rcm.Model.routability Rcm.Geometry.Xor ~d:cfg.bits ~q);
      ( "det-suffix",
        sim ~build:(fun _rng -> Overlay.Table.build_deterministic_xor ~bits:cfg.bits ()) );
      ( "rand-suffix",
        sim ~build:(fun rng -> Overlay.Table.build ~rng ~bits:cfg.bits Rcm.Geometry.Xor) );
    ]
