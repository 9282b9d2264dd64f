type config = Fig6a.config = {
  bits : int;
  qs : float list;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

(* Fig. 6(b): ring only. The analytical curve ignores the progress made
   by suboptimal hops, so it upper-bounds the failed-path percentage;
   the gap narrows below q ~ 0.2 (the region the paper calls "of
   practical interest"). *)
let run ?pool cfg =
  Series.create
    ~title:
      (Printf.sprintf
         "Fig 6(b): %% failed paths vs q, N=2^%d — ring analysis (upper bound) vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:(Array.of_list cfg.qs)
    [
      Series.column ~label:"ring(ana)" (Fig6a.analysis_values cfg Rcm.Geometry.Ring);
      Series.column ~label:"ring(sim)" (Fig6a.simulation_values ?pool cfg Rcm.Geometry.Ring);
    ]
