open Helpers

(* --- Ascii_plot ----------------------------------------------------------- *)

let test_interpolate_exact_points () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 10.0; 20.0; 40.0 |] in
  Alcotest.(check (option (float 1e-9))) "at node" (Some 20.0)
    (Experiments.Ascii_plot.interpolate xs ys 1.0);
  Alcotest.(check (option (float 1e-9))) "midpoint" (Some 30.0)
    (Experiments.Ascii_plot.interpolate xs ys 1.5);
  Alcotest.(check (option (float 1e-9))) "outside" None
    (Experiments.Ascii_plot.interpolate xs ys 2.5)

let test_interpolate_skips_nan () =
  let xs = [| 0.0; 1.0 |] and ys = [| nan; 2.0 |] in
  Alcotest.(check (option (float 1e-9))) "nan segment" None
    (Experiments.Ascii_plot.interpolate xs ys 0.5)

let sample_series =
  Experiments.Series.create ~title:"test plot" ~x_label:"x"
    ~x:[| 0.0; 1.0; 2.0 |]
    [
      Experiments.Series.column ~label:"up" [| 0.0; 0.5; 1.0 |];
      Experiments.Series.column ~label:"down" [| 1.0; 0.5; 0.0 |];
    ]

let test_render_structure () =
  let out = Experiments.Ascii_plot.render ~width:32 ~height:8 sample_series in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "title present" true (List.hd lines = "test plot");
  Alcotest.(check bool) "legend up" true
    (List.exists (fun l -> String.ends_with ~suffix:"* = up" l) lines);
  Alcotest.(check bool) "legend down" true
    (List.exists (fun l -> String.ends_with ~suffix:"+ = down" l) lines);
  (* Both markers appear on the canvas. *)
  Alcotest.(check bool) "marker *" true (String.contains out '*');
  Alcotest.(check bool) "marker +" true (String.contains out '+')

let test_render_y_pinning () =
  let out =
    Experiments.Ascii_plot.render ~width:20 ~height:6 ~y_floor:0.0 ~y_ceiling:2.0
      sample_series
  in
  Alcotest.(check bool) "ceiling label" true
    (List.exists
       (fun l -> String.length l > 0 && String.trim l <> "" && String.trim (List.hd (String.split_on_char '|' l)) = "2")
       (String.split_on_char '\n' out))

let test_render_rejects_tiny_canvas () =
  Alcotest.(check bool) "tiny canvas" true
    (try
       ignore (Experiments.Ascii_plot.render ~width:4 ~height:2 sample_series);
       false
     with Invalid_argument _ -> true)

let render_never_crashes =
  qcheck "render handles arbitrary finite series"
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 12) (float_range (-100.0) 100.0))
        (list_size (int_range 2 12) (float_range (-100.0) 100.0)))
    (fun (xs, ys) ->
      let n = min (List.length xs) (List.length ys) in
      let xs = Array.of_list (List.filteri (fun i _ -> i < n) xs) in
      let ys = Array.of_list (List.filteri (fun i _ -> i < n) ys) in
      let distinct = Array.length (Array.of_seq (List.to_seq (List.sort_uniq compare (Array.to_list xs)))) in
      distinct < 2
      ||
      let series =
        Experiments.Series.create ~title:"t" ~x_label:"x" ~x:xs
          [ Experiments.Series.column ~label:"y" ys ]
      in
      String.length (Experiments.Ascii_plot.render ~width:24 ~height:6 series) > 0)

(* --- Correlated failures (A6) ---------------------------------------------- *)

let test_block_failure_mask () =
  let mask = Overlay.Failure.sample_block ~rng:(rng_of_seed 5) ~fraction:0.25 100 in
  Alcotest.(check int) "alive count" 75 (Helpers.alive_count mask);
  (* The dead region is one contiguous (wrapping) block: count
     alive->dead transitions around the ring; must be exactly 1. *)
  let transitions = ref 0 in
  for i = 0 to 99 do
    if Overlay.Failure.get mask i && not (Overlay.Failure.get mask ((i + 1) mod 100)) then
      incr transitions
  done;
  Alcotest.(check int) "one block" 1 !transitions

let test_block_failure_extremes () =
  let all = Overlay.Failure.sample_block ~rng:(rng_of_seed 1) ~fraction:0.0 50 in
  Alcotest.(check int) "none dead" 50 (Helpers.alive_count all);
  let none = Overlay.Failure.sample_block ~rng:(rng_of_seed 1) ~fraction:1.0 50 in
  Alcotest.(check int) "all dead" 0 (Helpers.alive_count none)

let test_a6_tree_prefers_blocks () =
  (* A contiguous dead block is one dead subtree: tree routability under
     block failure far exceeds iid at the same magnitude. *)
  let cfg =
    { Experiments.Correlated_failures.default_config with bits = 10; trials = 3;
      pairs = 800; qs = [ 0.3 ] }
  in
  let s = Experiments.Correlated_failures.run_all cfg in
  let iid = Option.get (Helpers.value_at s ~label:"tree(iid)" ~x:0.3) in
  let blk = Option.get (Helpers.value_at s ~label:"tree(blk)" ~x:0.3) in
  Alcotest.(check bool) (Printf.sprintf "block %.3f > iid %.3f + 0.2" blk iid) true
    (blk > iid +. 0.2)

let test_a6_q0_everything_delivers () =
  let cfg =
    { Experiments.Correlated_failures.default_config with bits = 9; trials = 1;
      pairs = 300; qs = [ 0.0 ] }
  in
  let s = Experiments.Correlated_failures.run_all cfg in
  List.iter
    (fun g ->
      let label = Rcm.Geometry.slug g ^ "(blk)" in
      check_close ~msg:(Rcm.Geometry.name g) 1.0 (Option.get (Helpers.value_at s ~label ~x:0.0)))
    Rcm.Geometry.all_default

(* --- Heterogeneous Symphony -------------------------------------------------- *)

(* Eq. 7 with class-specific death probabilities: the heterogeneous
   spec's engine-supplied q is the shortcut one. *)
let heterogeneous_q ~d ~q_near ~q_shortcut ~k_n ~k_s =
  (Rcm.Symphony.spec_heterogeneous ~q_near ~k_n ~k_s).Rcm.Spec.phase_failure ~d ~q:q_shortcut ~m:1

let test_heterogeneous_reduces_to_eq7 () =
  List.iter
    (fun q ->
      check_close
        ((Rcm.Symphony.spec ~k_n:1 ~k_s:1).Rcm.Spec.phase_failure ~d:16 ~q ~m:1)
        (heterogeneous_q ~d:16 ~q_near:q ~q_shortcut:q ~k_n:1 ~k_s:1))
    [ 0.05; 0.2; 0.5 ]

let test_heterogeneous_monotone_in_each_class () =
  let base =
    heterogeneous_q ~d:16 ~q_near:0.2 ~q_shortcut:0.1 ~k_n:1 ~k_s:1
  in
  let worse_near =
    heterogeneous_q ~d:16 ~q_near:0.4 ~q_shortcut:0.1 ~k_n:1 ~k_s:1
  in
  let worse_short =
    heterogeneous_q ~d:16 ~q_near:0.2 ~q_shortcut:0.3 ~k_n:1 ~k_s:1
  in
  Alcotest.(check bool) "near monotone" true (worse_near >= base);
  Alcotest.(check bool) "shortcut monotone" true (worse_short >= base)

let heterogeneous_is_probability =
  qcheck "heterogeneous Q stays a probability"
    QCheck2.Gen.(triple prob_gen prob_gen (int_range 4 64))
    (fun (qn, qs, d) ->
      Numerics.Prob.is_valid
        (heterogeneous_q ~d ~q_near:qn ~q_shortcut:qs ~k_n:2 ~k_s:2))

(* --- Critical q (T2) ----------------------------------------------------------- *)

let test_critical_q_hits_target () =
  List.iter
    (fun g ->
      match Experiments.Critical_q.critical_q g ~d:16 ~target:0.9 with
      | None -> Alcotest.failf "%s cannot reach 0.9 at tiny q" (Rcm.Geometry.name g)
      | Some q when q >= 1.0 -> Alcotest.failf "%s never drops below 0.9" (Rcm.Geometry.name g)
      | Some q ->
          let r = Rcm.Model.routability g ~d:16 ~q in
          if Float.abs (r -. 0.9) > 1e-3 then
            Alcotest.failf "%s: r(q*) = %.5f at q* = %.5f" (Rcm.Geometry.name g) r q)
    Rcm.Geometry.all_default

let test_critical_q_ordering () =
  (* A stricter target tolerates less failure. *)
  List.iter
    (fun g ->
      match
        ( Experiments.Critical_q.critical_q g ~d:16 ~target:0.9,
          Experiments.Critical_q.critical_q g ~d:16 ~target:0.5 )
      with
      | Some strict, Some loose ->
          Alcotest.(check bool) (Rcm.Geometry.name g) true (strict <= loose +. 1e-9)
      | _, _ -> Alcotest.fail "unexpected unattainable target at d=16")
    Rcm.Geometry.all_default

let test_critical_q_table_shape () =
  let rows = Experiments.Critical_q.run () in
  Alcotest.(check int) "rows" (5 * 2 * 2) (List.length rows);
  (* Tree's asymptotic envelope collapses compared to d=16. *)
  let find d target g =
    (List.find
       (fun r ->
         r.Experiments.Critical_q.d = d
         && r.Experiments.Critical_q.target = target
         && Rcm.Geometry.equal r.Experiments.Critical_q.geometry g)
       rows)
      .Experiments.Critical_q.q_critical
  in
  match (find 16 0.9 Rcm.Geometry.Tree, find 100 0.9 Rcm.Geometry.Tree) with
  | Some q16, Some q100 ->
      Alcotest.(check bool) (Printf.sprintf "%.4f > %.4f" q16 q100) true (q16 > q100)
  | _, _ -> Alcotest.fail "tree critical q missing"

let test_critical_q_scalable_stable_in_d () =
  (* Scalable geometries keep nearly the same envelope at d = 100. *)
  List.iter
    (fun g ->
      match
        ( Experiments.Critical_q.critical_q g ~d:16 ~target:0.5,
          Experiments.Critical_q.critical_q g ~d:100 ~target:0.5 )
      with
      | Some q16, Some q100 ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: |%.4f - %.4f| < 0.02" (Rcm.Geometry.name g) q16 q100)
            true
            (Float.abs (q16 -. q100) < 0.02)
      | _, _ -> Alcotest.fail "unattainable")
    [ Rcm.Geometry.Hypercube; Rcm.Geometry.Xor; Rcm.Geometry.Ring ]

(* --- Thresholds (A10) ---------------------------------------------------------- *)

let test_giant_threshold_bounds () =
  let t = Sim.Percolation.giant_threshold ~trials:2 ~bits:9 Rcm.Geometry.Hypercube in
  Alcotest.(check bool) (Printf.sprintf "threshold %.3f in (0.5, 1)" t) true
    (t > 0.5 && t < 1.0)

let test_routing_collapses_before_connectivity () =
  let rows = Experiments.Thresholds.run ~bits:10 ~trials:2 () in
  List.iter
    (fun (row : Experiments.Thresholds.row) ->
      let margin =
        row.connectivity_collapse -. Option.value ~default:0.0 row.routing_collapse
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s margin %.3f > 0" (Rcm.Geometry.name row.geometry) margin)
        true (margin > 0.0))
    rows

let suite =
  [
    ("A10: giant threshold bounds", `Slow, test_giant_threshold_bounds);
    ("A10: routing collapses first", `Slow, test_routing_collapses_before_connectivity);
    ("interpolate exact points", `Quick, test_interpolate_exact_points);
    ("interpolate skips nan", `Quick, test_interpolate_skips_nan);
    ("render structure", `Quick, test_render_structure);
    ("render y pinning", `Quick, test_render_y_pinning);
    ("render rejects tiny canvas", `Quick, test_render_rejects_tiny_canvas);
    render_never_crashes;
    ("block failure mask", `Quick, test_block_failure_mask);
    ("block failure extremes", `Quick, test_block_failure_extremes);
    ("A6: tree prefers blocks", `Slow, test_a6_tree_prefers_blocks);
    ("A6: q=0 delivers", `Quick, test_a6_q0_everything_delivers);
    ("heterogeneous symphony = Eq.7 when equal", `Quick, test_heterogeneous_reduces_to_eq7);
    ("heterogeneous symphony monotone", `Quick, test_heterogeneous_monotone_in_each_class);
    heterogeneous_is_probability;
    ("T2: critical q hits target", `Quick, test_critical_q_hits_target);
    ("T2: critical q ordering", `Quick, test_critical_q_ordering);
    ("T2: table shape", `Quick, test_critical_q_table_shape);
    ("T2: scalable stable in d", `Quick, test_critical_q_scalable_stable_in_d);
  ]
