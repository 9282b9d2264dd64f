open Helpers

(* --- Series ------------------------------------------------------------ *)

let sample_series =
  Experiments.Series.create ~title:"t" ~x_label:"q"
    ~x:[| 0.0; 0.5; 1.0 |]
    [ Experiments.Series.column ~label:"a" [| 1.0; 2.0; 3.0 |] ]

let test_series_shape_mismatch () =
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore
         (Experiments.Series.create ~title:"t" ~x_label:"q" ~x:[| 1.0 |]
            [ Experiments.Series.column ~label:"a" [| 1.0; 2.0 |] ]);
       false
     with Invalid_argument _ -> true)

let test_series_lookup () =
  Alcotest.(check (option (float 0.0))) "value at" (Some 2.0)
    (Helpers.value_at sample_series ~label:"a" ~x:0.5);
  Alcotest.(check (option (float 0.0))) "missing x" None
    (Helpers.value_at sample_series ~label:"a" ~x:0.7);
  Alcotest.(check (list string)) "columns by label" [ "a" ]
    (List.map (fun (c : Experiments.Series.column) -> c.label) sample_series.columns)

let test_series_csv () =
  let csv = Experiments.Series.to_csv sample_series in
  Alcotest.(check string) "csv" "q,a\n0,1\n0.5,2\n1,3\n" csv

let test_series_tabulate () =
  let s =
    Experiments.Series.tabulate ~title:"sq" ~x_label:"x" ~x:[ 1.0; 2.0; 3.0 ]
      [ ("square", fun x -> x *. x) ]
  in
  Alcotest.(check (option (float 0.0))) "tabulated" (Some 9.0)
    (Helpers.value_at s ~label:"square" ~x:3.0)

let test_grid () =
  Alcotest.(check int) "fig6 grid size" 11 (List.length Experiments.Grid.fig6_q);
  check_close 0.05 (List.nth Experiments.Grid.fig6_q 1);
  Alcotest.(check int) "fig7a grid size" 15 (List.length Experiments.Grid.fig7a_q);
  check_close 0.7 (List.nth Experiments.Grid.fig7a_q 14)

(* --- Figure experiments (quick configurations) -------------------------- *)

let quick6 = { Experiments.Fig6a.quick_config with trials = 1; pairs_per_trial = 300 }

let test_fig6a_analysis_shape () =
  (* At q = 0 nothing fails; at q = 0.3 the tree fails far more than the
     hypercube. *)
  let v g q =
    let qs = quick6.Experiments.Fig6a.qs in
    (Experiments.Fig6a.analysis_values quick6 g).(Option.get (List.find_index (( = ) q) qs))
  in
  let tree = Rcm.Geometry.Tree and cube = Rcm.Geometry.Hypercube and xor = Rcm.Geometry.Xor in
  Alcotest.(check bool) "q=0 tree" true (v tree 0.0 < 1e-9);
  Alcotest.(check bool) "ordering" true (v tree 0.3 > 3.0 *. v cube 0.3);
  Alcotest.(check bool) "xor between" true (v xor 0.3 > v cube 0.3 && v xor 0.3 < v tree 0.3)

let test_fig6a_simulation_tracks_analysis () =
  let s = Experiments.Fig6a.run quick6 in
  (* Tree and hypercube simulations sit on their analytic curves
     (within Monte-Carlo noise at 300 pairs: a few percentage points). *)
  List.iter
    (fun label ->
      Array.iteri
        (fun _i q ->
          let ana =
            Option.get (Helpers.value_at s ~label:(label ^ "(ana)") ~x:q)
          in
          let sim =
            Option.get (Helpers.value_at s ~label:(label ^ "(sim)") ~x:q)
          in
          if Float.abs (ana -. sim) > 8.0 then
            Alcotest.failf "%s at q=%.2f: analysis %.1f%% vs sim %.1f%%" label q ana sim)
        s.Experiments.Series.x)
    [ "tree"; "hypercube" ]

let test_fig6b_bound () =
  let s = Experiments.Fig6b.run quick6 in
  Alcotest.(check (list (float 0.0)))
    "no bound violations" []
    (violations s "ring(ana)" "ring(sim)" (fun ana sim -> sim > ana +. 4.0))

let test_fig7a_step_functions () =
  let s = Experiments.Fig7a.run Experiments.Fig7a.default_config in
  (* The paper's reading: ~0% failed at q = 0, above 99% for q >= 0.1. *)
  let step_function_like label =
    List.for_all2
      (fun q v -> if q = 0.0 then v < 1e-6 else q < 0.1 || v > 99.0)
      (Array.to_list s.Experiments.Series.x) (Array.to_list (column s label))
  in
  Alcotest.(check bool) "tree is a step function" true (step_function_like "tree");
  Alcotest.(check bool) "symphony is a step function" true (step_function_like "symphony");
  Alcotest.(check bool) "hypercube is not" false (step_function_like "hypercube")

let test_fig7a_matches_d16_for_scalable () =
  (* "The curves for the other three geometries are very close to the
     case for N = 2^16" — check within 2.5 percentage points at
     q <= 0.5. *)
  let s100 = Experiments.Fig7a.run Experiments.Fig7a.default_config in
  List.iter
    (fun label ->
      List.iter
        (fun q ->
          let g = Result.get_ok (Rcm.Geometry.of_string label) in
          let v16 = Rcm.Model.failed_paths_percent g ~d:16 ~q in
          let v100 = Option.get (Helpers.value_at s100 ~label ~x:q) in
          if Float.abs (v16 -. v100) > 2.5 then
            Alcotest.failf "%s at q=%.2f: d=16 %.2f%% vs d=100 %.2f%%" label q v16 v100)
        [ 0.1; 0.3; 0.5 ])
    [ "hypercube"; "xor"; "ring" ]

let test_fig7b_scalability_split () =
  let s = Experiments.Fig7b.run Experiments.Fig7b.default_config in
  (* Unscalable: never rises with d and ends below 0.3. Scalable: never
     drops below a floor. *)
  let decays label =
    let c = column s label in
    let rises = ref false in
    Array.iteri (fun i v -> if i > 0 && v > c.(i - 1) +. 1e-12 then rises := true) c;
    (not !rises) && c.(Array.length c - 1) < 0.3
  in
  let stays_up label ~floor = Array.for_all (fun v -> v >= floor) (column s label) in
  Alcotest.(check bool) "tree decays" true (decays "tree");
  Alcotest.(check bool) "symphony decays" true (decays "symphony");
  Alcotest.(check bool) "hypercube stays up" true (stays_up "hypercube" ~floor:0.98);
  Alcotest.(check bool) "xor stays up" true (stays_up "xor" ~floor:0.95);
  Alcotest.(check bool) "ring stays up" true (stays_up "ring" ~floor:0.97)

let test_classification_table () =
  let report = Experiments.Classification.run () in
  Alcotest.(check bool) "all agree with the paper" true
    (Experiments.Classification.all_agree report);
  Alcotest.(check int) "five rows" 5 (List.length report.Experiments.Classification.rows)

let test_validation_v1 () =
  let rows = Experiments.Validation.chain_vs_closed ~hs:[ 1; 4; 9 ] ~qs:[ 0.1; 0.4 ] () in
  Alcotest.(check bool) "max error tiny" true
    (Experiments.Validation.max_chain_error rows < 1e-10)

let test_validation_v2 () =
  let rows =
    Experiments.Validation.sim_vs_analysis ~bits:10 ~qs:[ 0.1; 0.3 ] ~trials:2
      ~pairs_per_trial:1_500 ()
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Experiments.Validation.sim_violations rows))

let test_connectivity_experiment () =
  let cfg =
    { Experiments.Connectivity.default_config with bits = 8; trials = 1; pairs = 300;
      qs = [ 0.0; 0.2; 0.4 ] }
  in
  let s = Experiments.Connectivity.run cfg Rcm.Geometry.Tree in
  Alcotest.(check (list (float 0.0)))
    "routability below connectivity" []
    (violations s "connectivity" "routability" (fun c r -> r > c +. 0.05));
  (* At q = 0.4 the tree has a substantial reachability gap. *)
  let gap = Option.get (Helpers.value_at s ~label:"gap" ~x:0.4) in
  Alcotest.(check bool) (Printf.sprintf "gap %.3f > 0.2" gap) true (gap > 0.2)

let test_symphony_knobs () =
  let cfg =
    { Experiments.Symphony_knobs.default_config with bits = 12; qs = [ 0.1; 0.3 ] }
  in
  let s = Experiments.Symphony_knobs.run cfg in
  (* More connections never hurt, on every pair of comparable knobs. *)
  let label (k_n, k_s) = Printf.sprintf "kn=%d,ks=%d" k_n k_s in
  let knobs = cfg.Experiments.Symphony_knobs.knobs in
  List.iter
    (fun ((n1, s1) as a) ->
      List.iter
        (fun ((n2, s2) as b) ->
          if n1 <= n2 && s1 <= s2 && a <> b then
            Alcotest.(check (list (float 0.0)))
              (Printf.sprintf "%s <= %s" (label a) (label b)) []
              (violations s (label a) (label b) (fun va vb -> va > vb +. 1e-9)))
        knobs)
    knobs;
  (* More links help: (4,4) beats (1,1) at q=0.3. *)
  let v knobs = Option.get (Helpers.value_at s ~label:(label knobs) ~x:0.3) in
  Alcotest.(check bool) "knobs help" true (v (4, 4) > v (1, 1))

let test_suffix_ablation () =
  let cfg =
    { Experiments.Suffix_ablation.default_config with bits = 10; trials = 2; pairs = 800;
      qs = [ 0.1; 0.3 ] }
  in
  let s = Experiments.Suffix_ablation.run cfg in
  Alcotest.(check (list (float 0.0)))
    "det-suffix >= analysis" []
    (violations s "analysis" "det-suffix" (fun ana det -> det +. 0.04 < ana));
  Alcotest.(check (list (float 0.0)))
    "rand-suffix <= det-suffix" []
    (violations s "det-suffix" "rand-suffix" (fun det rand -> rand > det +. 0.04))

let test_finger_ablation () =
  let cfg =
    { Experiments.Finger_ablation.default_config with bits = 10; trials = 2; pairs = 800;
      qs = [ 0.1; 0.3 ] }
  in
  let s = Experiments.Finger_ablation.run cfg in
  Alcotest.(check (list (float 0.0)))
    "deterministic fingers respect the bound" []
    (violations s "analysis" "det-fingers" (fun ana det -> det +. 0.04 < ana))

let suite =
  [
    ("series shape mismatch", `Quick, test_series_shape_mismatch);
    ("series lookup", `Quick, test_series_lookup);
    ("series csv", `Quick, test_series_csv);
    ("series tabulate", `Quick, test_series_tabulate);
    ("grids", `Quick, test_grid);
    ("fig6a analysis shape", `Quick, test_fig6a_analysis_shape);
    ("fig6a simulation tracks analysis", `Slow, test_fig6a_simulation_tracks_analysis);
    ("fig6b ring bound", `Slow, test_fig6b_bound);
    ("fig7a step functions", `Quick, test_fig7a_step_functions);
    ("fig7a scalable curves match d=16", `Quick, test_fig7a_matches_d16_for_scalable);
    ("fig7b scalability split", `Quick, test_fig7b_scalability_split);
    ("classification table", `Quick, test_classification_table);
    ("validation V1 (chains)", `Quick, test_validation_v1);
    ("validation V2 (simulation)", `Slow, test_validation_v2);
    ("connectivity experiment (A1)", `Slow, test_connectivity_experiment);
    ("symphony knobs (A2)", `Quick, test_symphony_knobs);
    ("suffix ablation (A3)", `Slow, test_suffix_ablation);
    ("finger ablation (A4)", `Slow, test_finger_ablation);
  ]
