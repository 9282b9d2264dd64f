open Helpers

let geometries = Rcm.Geometry.all_default

let is_scalable = function Rcm.Scalability.Scalable _ -> true | Unscalable _ -> false

(* --- Geometry ------------------------------------------------------------ *)

let test_geometry_names () =
  Alcotest.(check (list string))
    "names"
    [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]
    (List.map Rcm.Geometry.name geometries)

let test_geometry_parse () =
  List.iter
    (fun g ->
      match Rcm.Geometry.of_string (Rcm.Geometry.name g) with
      | Ok g' -> Alcotest.(check bool) "roundtrip" true (Rcm.Geometry.equal g g')
      | Error e -> Alcotest.fail e)
    geometries;
  Alcotest.(check bool) "system names too" true
    (Rcm.Geometry.of_string "Kademlia" = Ok Rcm.Geometry.Xor);
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Rcm.Geometry.of_string "pastry"))

(* --- Distance distributions n(h) ------------------------------------------- *)

let test_population_sums_to_network () =
  (* sum_h n(h) = 2^d - 1 for every geometry (step 2 covers everyone). *)
  List.iter
    (fun g ->
      let spec = Rcm.Model.spec_of_geometry g in
      check_loose
        ~msg:(Rcm.Geometry.name g)
        (Float.pow 2.0 16.0 -. 1.0)
        (total_population spec ~d:16))
    geometries

let test_population_binomial_vs_ring () =
  check_close
    (Numerics.Binomial.choose_float 16 5)
    (exp (Rcm.Tree.spec.Rcm.Spec.log_population ~d:16 ~h:5));
  check_close 16.0 (exp (Rcm.Ring.spec.Rcm.Spec.log_population ~d:16 ~h:5))

(* --- p(h,q): closed forms vs the generic engine and exact chains --------- *)

let test_fig3_worked_example () =
  let q = 0.2 in
  check_close
    ((1.0 -. (q ** 3.0)) *. (1.0 -. (q ** 2.0)) *. (1.0 -. q))
    (Rcm.Hypercube.success_probability ~q ~h:3)

let test_tree_p_closed_form () =
  check_close (0.7 ** 4.0) (Rcm.Tree.success_probability ~q:0.3 ~h:4)

let engine_matches_closed_forms () =
  (* The generic engine's p(h,q) built from Q(m) must equal each
     geometry's direct closed form. *)
  List.iter
    (fun q ->
      List.iter
        (fun h ->
          let engine g = Rcm.Engine.success_probability (Rcm.Model.spec_of_geometry g) ~d:16 ~q ~h in
          check_close ~msg:"tree" (Rcm.Tree.success_probability ~q ~h) (engine Rcm.Geometry.Tree);
          check_close ~msg:"hypercube"
            (Rcm.Hypercube.success_probability ~q ~h)
            (engine Rcm.Geometry.Hypercube);
          check_close ~msg:"xor"
            (Rcm.Xor_routing.success_probability ~q ~h)
            (engine Rcm.Geometry.Xor);
          check_close ~msg:"ring" (Rcm.Ring.success_probability ~q ~h) (engine Rcm.Geometry.Ring);
          check_close ~msg:"symphony"
            (Rcm.Symphony.success_probability ~d:16 ~q ~k_n:1 ~k_s:1 ~h)
            (engine Rcm.Geometry.default_symphony))
        [ 1; 2; 5; 10; 16 ])
    [ 0.05; 0.2; 0.5 ]

let closed_forms_match_chains () =
  (* Every closed-form p(h,q) of section 4.3 equals the exact absorption
     probability of its Markov chain — the core V1 claim. *)
  let rows = Experiments.Validation.chain_vs_closed () in
  let err = Experiments.Validation.max_chain_error rows in
  Alcotest.(check bool) (Printf.sprintf "max error %.3e < 1e-10" err) true (err < 1e-10)

(* --- Q(m) -------------------------------------------------------------------- *)

let q_of (spec : Rcm.Spec.t) ~q ~m = spec.phase_failure ~d:64 ~q ~m

let test_q_last_phase_is_q () =
  (* In every geometry's chain the final phase needs exactly the
     destination's availability: Q(1) = q. (Symphony differs: its Q is
     phase-independent by construction.) *)
  List.iter
    (fun q ->
      check_close ~msg:"tree" q (q_of Rcm.Tree.spec ~q ~m:1);
      check_close ~msg:"hypercube" q (q_of Rcm.Hypercube.spec ~q ~m:1);
      check_close ~msg:"xor" q (Rcm.Xor_routing.phase_failure ~q ~m:1);
      check_close ~msg:"ring" q (q_of Rcm.Ring.spec ~q ~m:1))
    [ 0.05; 0.3; 0.8 ]

let test_q_xor_exact_vs_sum () =
  (* Eq. 6 exact form vs a direct evaluation of the double sum. *)
  let q = 0.35 and m = 7 in
  let direct =
    let total = ref (q ** float_of_int m) in
    for k = 1 to m - 1 do
      let prod = ref 1.0 in
      for j = m - k to m - 1 do
        prod := !prod *. (1.0 -. (q ** float_of_int j))
      done;
      total := !total +. ((q ** float_of_int m) *. !prod)
    done;
    !total
  in
  check_close direct (Rcm.Xor_routing.phase_failure ~q ~m)

let test_q_ring_small_cases () =
  let q = 0.3 in
  (* m=1: Q = q. m=2: s = q(1-q), K = 2: Q = q^2 (1 + s). *)
  check_close q (q_of Rcm.Ring.spec ~q ~m:1);
  check_close (q *. q *. (1.0 +. (q *. (1.0 -. q)))) (q_of Rcm.Ring.spec ~q ~m:2)

let test_q_symphony_degenerate_domain () =
  (* Outside the model domain the suboptimal branch vanishes and
     Q = q^(kn+ks). *)
  let q = 0.99 in
  check_close (q *. q) ((Rcm.Symphony.spec ~k_n:1 ~k_s:1).Rcm.Spec.phase_failure ~d:4 ~q ~m:1)

let q_values_are_probabilities =
  qcheck "Q(m) is a probability for every geometry"
    QCheck2.Gen.(pair prob_gen (int_range 1 40))
    (fun (q, m) ->
      List.for_all
        (fun g ->
          let spec = Rcm.Model.spec_of_geometry g in
          Numerics.Prob.is_valid (spec.Rcm.Spec.phase_failure ~d:64 ~q ~m))
        geometries)

let q_xor_at_least_tree_at_most_one =
  qcheck "q <= Q_xor(m) relation: Q_xor <= q * m-ish bound and >= q^m"
    QCheck2.Gen.(pair small_prob_gen (int_range 1 30))
    (fun (q, m) ->
      let qx = Rcm.Xor_routing.phase_failure ~q ~m in
      (* All-useful-neighbours-dead is necessary for XOR phase failure:
         Q_xor >= q^m; and XOR cannot fail more often than tree: <= q. *)
      qx >= Numerics.Prob.pow q m -. 1e-12 && qx <= q +. 1e-12)

let q_ring_below_xor =
  qcheck "Q_ring(m) <= Q_xor(m) (section 5.4 comparison)"
    QCheck2.Gen.(pair small_prob_gen (int_range 1 30))
    (fun (q, m) ->
      q_of Rcm.Ring.spec ~q ~m <= Rcm.Xor_routing.phase_failure ~q ~m +. 1e-12)

(* --- Routability ------------------------------------------------------------ *)

let test_routability_no_failure () =
  List.iter
    (fun g ->
      check_close ~msg:(Rcm.Geometry.name g) 1.0 (Rcm.Model.routability g ~d:16 ~q:0.0))
    geometries

let test_routability_total_failure () =
  List.iter
    (fun g ->
      Alcotest.(check (float 0.0)) (Rcm.Geometry.name g) 0.0 (Rcm.Model.routability g ~d:16 ~q:1.0))
    geometries

let test_tree_closed_routability () =
  (* r = ((2-q)^d - 1)/((1-q) 2^d - 1), cross-checked against the
     engine. *)
  let q = 0.25 and d = 12 in
  let expected = (((2.0 -. q) ** float_of_int d) -. 1.0) /. (((1.0 -. q) *. 4096.0) -. 1.0) in
  check_close expected (Rcm.Tree.routability ~d ~q);
  check_close expected (Rcm.Model.routability Rcm.Geometry.Tree ~d ~q)

let test_tree_routability_d100 () =
  (* The log-space path must agree with direct 100-bit evaluation (still
     inside float range). *)
  let q = 0.1 and d = 100 in
  let expected = (((2.0 -. q) ** 100.0) -. 1.0) /. ((0.9 *. Float.pow 2.0 100.0) -. 1.0) in
  check_loose expected (Rcm.Tree.routability ~d ~q)

let test_paper_figure6_values () =
  (* Anchor values for N = 2^16 (percent failed paths): the shape the
     paper plots in Fig. 6. Regression guardrails, 3 significant
     figures. *)
  let failed g q = Rcm.Model.failed_paths_percent g ~d:16 ~q in
  Alcotest.(check bool) "tree q=0.1 ~ 51.1%" true
    (Float.abs (failed Rcm.Geometry.Tree 0.1 -. 51.10) < 0.05);
  Alcotest.(check bool) "hypercube q=0.3 ~ 12.4%" true
    (Float.abs (failed Rcm.Geometry.Hypercube 0.3 -. 12.44) < 0.05);
  Alcotest.(check bool) "xor q=0.3 ~ 24.5%" true
    (Float.abs (failed Rcm.Geometry.Xor 0.3 -. 24.48) < 0.05);
  Alcotest.(check bool) "ring q=0.3 ~ 15.6%" true
    (Float.abs (failed Rcm.Geometry.Ring 0.3 -. 15.58) < 0.05)

let routability_in_unit_interval =
  qcheck "routability lies in [0,1]"
    QCheck2.Gen.(pair prob_gen (int_range 1 24))
    (fun (q, d) ->
      List.for_all
        (fun g -> Numerics.Prob.is_valid (Rcm.Model.routability g ~d ~q))
        geometries)

let routability_decreases_in_q =
  qcheck "routability decreases in q"
    QCheck2.Gen.(pair (float_range 0.01 0.45) (int_range 4 20))
    (fun (q, d) ->
      List.for_all
        (fun g ->
          Rcm.Model.routability g ~d ~q:(q +. 0.3)
          <= Rcm.Model.routability g ~d ~q +. 1e-9)
        geometries)

(* Section 5.4 compares the *success probabilities* p(h,q), not overall
   routability: ring's n(h) = 2^(h-1) concentrates targets at far
   distances, so the routability ordering can flip even though p is
   ordered pointwise. *)
let ring_p_at_least_xor_p =
  qcheck "ring p(h,q) >= xor p(h,q) (section 5.4)"
    QCheck2.Gen.(pair prob_gen (int_range 1 40))
    (fun (q, h) ->
      Rcm.Ring.success_probability ~q ~h
      >= Rcm.Xor_routing.success_probability ~q ~h -. 1e-12)

let xor_routability_at_least_tree =
  qcheck "xor routability >= tree routability"
    QCheck2.Gen.(pair small_prob_gen (int_range 4 24))
    (fun (q, d) ->
      Rcm.Model.routability Rcm.Geometry.Xor ~d ~q
      >= Rcm.Model.routability Rcm.Geometry.Tree ~d ~q -. 1e-9)

let hypercube_beats_xor =
  qcheck "hypercube routability >= xor routability"
    QCheck2.Gen.(pair small_prob_gen (int_range 4 24))
    (fun (q, d) ->
      Rcm.Model.routability Rcm.Geometry.Hypercube ~d ~q
      >= Rcm.Model.routability Rcm.Geometry.Xor ~d ~q -. 1e-9)

(* --- Expected reachable component ------------------------------------------- *)

let test_expected_reachable_q0 () =
  (* With no failures every node reaches all N - 1 others. *)
  List.iter
    (fun g ->
      check_loose
        ~msg:(Rcm.Geometry.name g)
        (Float.pow 2.0 14.0 -. 1.0)
        (Rcm.Model.expected_reachable g ~d:14 ~q:0.0))
    geometries

let expected_reachable_bounded =
  qcheck "E[S] <= N - 1"
    QCheck2.Gen.(pair prob_gen (int_range 2 20))
    (fun (q, d) ->
      List.for_all
        (fun g ->
          Rcm.Model.expected_reachable g ~d ~q
          <= (Float.pow 2.0 (float_of_int d) -. 1.0) *. (1.0 +. 1e-9))
        geometries)

(* --- Scalability ------------------------------------------------------------- *)

let test_paper_classification () =
  Alcotest.(check bool) "tree unscalable" true
    (Rcm.Scalability.paper_classification Rcm.Geometry.Tree = `Unscalable);
  Alcotest.(check bool) "symphony unscalable" true
    (Rcm.Scalability.paper_classification Rcm.Geometry.default_symphony = `Unscalable);
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Rcm.Geometry.name g ^ " scalable")
        true
        (Rcm.Scalability.paper_classification g = `Scalable))
    [ Rcm.Geometry.Hypercube; Rcm.Geometry.Xor; Rcm.Geometry.Ring ]

let test_numeric_classification_agrees () =
  List.iter
    (fun q ->
      List.iter
        (fun g ->
          Alcotest.(check bool)
            (Printf.sprintf "%s at q=%.2f" (Rcm.Geometry.name g) q)
            true
            (Rcm.Scalability.agrees_with_paper g ~q))
        geometries)
    [ 0.05; 0.1; 0.3; 0.5 ]

let test_asymptotic_success_values () =
  (* Hypercube: lim p = prod (1 - q^m) = QPochhammer(q). At q = 0.5
     that's ~0.288788. *)
  check_loose 0.288788095086602
    (Rcm.Scalability.asymptotic_success Rcm.Geometry.Hypercube ~q:0.5);
  (* Unscalable geometries collapse to 0. *)
  Alcotest.(check (float 1e-9)) "tree" 0.0
    (Rcm.Scalability.asymptotic_success Rcm.Geometry.Tree ~q:0.1);
  Alcotest.(check (float 1e-9)) "symphony" 0.0
    (Rcm.Scalability.asymptotic_success Rcm.Geometry.default_symphony ~q:0.1)

let test_classify_spec_custom_geometry () =
  (* A constant-Q spec (Koorde-style) must be flagged unscalable; a
     geometric-Q spec scalable — pure-Spec screening, no built-in
     geometry involved. *)
  let constant_q k =
    {
      Rcm.Spec.geometry = Rcm.Geometry.Tree;
      max_phase = (fun ~d -> d);
      log_population = (fun ~d:_ ~h -> float_of_int (h - 1) *. log 2.0);
      phase_failure = (fun ~d:_ ~q ~m:_ -> Numerics.Prob.pow q k);
    }
  in
  Alcotest.(check bool) "constant Q unscalable" false
    (is_scalable (Rcm.Scalability.classify_spec (constant_q 3) ~q:0.3));
  let geometric_q =
    {
      Rcm.Spec.geometry = Rcm.Geometry.Tree;
      max_phase = (fun ~d -> d);
      log_population = (fun ~d:_ ~h -> float_of_int (h - 1) *. log 2.0);
      phase_failure = (fun ~d:_ ~q ~m -> Numerics.Prob.pow q m);
    }
  in
  Alcotest.(check bool) "geometric Q scalable" true
    (is_scalable (Rcm.Scalability.classify_spec geometric_q ~q:0.3))

let test_scalability_at_q0 () =
  List.iter
    (fun g ->
      match Rcm.Scalability.classify g ~q:0.0 with
      | Rcm.Scalability.Scalable { asymptotic_success; _ } ->
          check_close 1.0 asymptotic_success
      | Rcm.Scalability.Unscalable _ -> Alcotest.fail "q=0 must be scalable")
    geometries

let asymptotic_success_below_all_finite_p =
  qcheck "lim p(h,q) <= p(h,q) for finite h"
    QCheck2.Gen.(pair small_prob_gen (int_range 1 30))
    (fun (q, h) ->
      let lim = Rcm.Scalability.asymptotic_success Rcm.Geometry.Hypercube ~q in
      lim <= Rcm.Hypercube.success_probability ~q ~h +. 1e-9)

(* The log-space engine must agree with a naive linear-space evaluation
   wherever the latter is representable. *)
let engine_log_space_matches_naive =
  qcheck "log-space E[S] matches naive float summation"
    QCheck2.Gen.(pair prob_gen (int_range 2 20))
    (fun (q, d) ->
      List.for_all
        (fun g ->
          let spec = Rcm.Model.spec_of_geometry g in
          let naive =
            let total = ref 0.0 in
            for h = 1 to d do
              let p = ref 1.0 in
              for m = 1 to h do
                p := !p *. (1.0 -. spec.Rcm.Spec.phase_failure ~d ~q ~m)
              done;
              total := !total +. (exp (spec.Rcm.Spec.log_population ~d ~h) *. !p)
            done;
            !total
          in
          approx_equal ~rtol:1e-6 ~atol:1e-9 naive
            (Rcm.Engine.expected_reachable spec ~d ~q))
        geometries)

let test_report_brief () =
  let report = Experiments.Report.build ~bits:12 Rcm.Geometry.Hypercube in
  Alcotest.(check bool) "scalable" true
    (is_scalable report.Experiments.Report.classification);
  Alcotest.(check bool) "agrees" true report.Experiments.Report.agrees_with_paper;
  Alcotest.(check bool) "has envelope" true (report.Experiments.Report.critical_q_90 <> None);
  check_loose ~msg:"hops at q0"
    (6.0 *. 4096.0 /. 4095.0)
    report.Experiments.Report.expected_hops_at_q0

(* --- Engine guards ------------------------------------------------------------- *)

let test_engine_rejects_bad_args () =
  let spec = Rcm.Model.spec_of_geometry Rcm.Geometry.Hypercube in
  Alcotest.(check bool) "bad d" true
    (try
       ignore (Rcm.Engine.routability spec ~d:0 ~q:0.1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad q" true
    (try
       ignore (Rcm.Engine.routability spec ~d:8 ~q:1.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad h" true
    (try
       ignore (Rcm.Engine.success_probability spec ~d:8 ~q:0.1 ~h:9);
       false
     with Invalid_argument _ -> true)

let test_surviving_peers () =
  (* r = E[S] / ((1-q) 2^d - 1): 511 peers at d = 10, q = 0.5. *)
  let spec = Rcm.Model.spec_of_geometry Rcm.Geometry.Tree in
  check_close 511.0
    (Rcm.Engine.expected_reachable spec ~d:10 ~q:0.5
    /. Rcm.Engine.routability spec ~d:10 ~q:0.5);
  (* Fewer than one survivor on average. *)
  Alcotest.(check (float 0.0)) "degenerate" 0.0 (Rcm.Engine.routability spec ~d:1 ~q:0.5)

let suite =
  [
    ("geometry names", `Quick, test_geometry_names);
    ("geometry parse", `Quick, test_geometry_parse);
    ("n(h) sums to N-1", `Quick, test_population_sums_to_network);
    ("n(h) binomial vs ring", `Quick, test_population_binomial_vs_ring);
    ("fig 3 worked example", `Quick, test_fig3_worked_example);
    ("tree p closed form", `Quick, test_tree_p_closed_form);
    ("engine matches closed forms", `Quick, engine_matches_closed_forms);
    ("closed forms match exact chains (V1)", `Quick, closed_forms_match_chains);
    ("Q(1) = q in ordered geometries", `Quick, test_q_last_phase_is_q);
    ("Q_xor exact vs direct sum", `Quick, test_q_xor_exact_vs_sum);
    ("Q_ring small cases", `Quick, test_q_ring_small_cases);
    ("Q_symphony degenerate domain", `Quick, test_q_symphony_degenerate_domain);
    q_values_are_probabilities;
    q_xor_at_least_tree_at_most_one;
    q_ring_below_xor;
    ("routability at q=0", `Quick, test_routability_no_failure);
    ("routability at q=1", `Quick, test_routability_total_failure);
    ("tree closed routability", `Quick, test_tree_closed_routability);
    ("tree routability at d=100", `Quick, test_tree_routability_d100);
    ("paper fig6 anchor values", `Quick, test_paper_figure6_values);
    routability_in_unit_interval;
    routability_decreases_in_q;
    ring_p_at_least_xor_p;
    xor_routability_at_least_tree;
    hypercube_beats_xor;
    ("E[S] at q=0", `Quick, test_expected_reachable_q0);
    expected_reachable_bounded;
    ("paper classification", `Quick, test_paper_classification);
    ("numeric classification agrees", `Quick, test_numeric_classification_agrees);
    ("asymptotic success values", `Quick, test_asymptotic_success_values);
    ("classify_spec on custom geometries", `Quick, test_classify_spec_custom_geometry);
    ("scalable at q=0", `Quick, test_scalability_at_q0);
    asymptotic_success_below_all_finite_p;
    engine_log_space_matches_naive;
    ("report brief", `Quick, test_report_brief);
    ("engine rejects bad args", `Quick, test_engine_rejects_bad_args);
    ("surviving peers", `Quick, test_surviving_peers);
  ]
