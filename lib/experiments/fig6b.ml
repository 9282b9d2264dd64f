type config = Fig6a.config = {
  bits : int;
  qs : float list;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

let default_config = Fig6a.default_config

let quick_config = Fig6a.quick_config

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

(* The bound of section 4.3.3 must hold pointwise up to Monte-Carlo
   noise: analytical failed%% >= simulated failed%%. *)
let bound_violations ?(slack = 2.0) series =
  match (Series.find_column series "ring(ana)", Series.find_column series "ring(sim)") with
  | Some ana, Some sim ->
      let violations = ref [] in
      Array.iteri
        (fun i q ->
          if sim.Series.values.(i) > ana.Series.values.(i) +. slack then
            violations := (q, ana.Series.values.(i), sim.Series.values.(i)) :: !violations)
        series.Series.x;
      List.rev !violations
  | None, _ | _, None -> invalid_arg "Fig6b.bound_violations: not a fig6b series"
