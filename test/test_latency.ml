open Helpers

let test_conditional_steps_simple () =
  (* S0 -> S1 w.p. 0.5 -> success w.p. 1; S0 -> F w.p. 0.5. Successful
     walks always take exactly 2 steps. *)
  let chain =
    Markov.Chain.create ~num_states:4 ~start:0
      ~edges:[ (0, 1, 0.5); (0, 3, 0.5); (1, 2, 1.0) ]
  in
  check_close 2.0 (Markov.Chain.expected_steps_given chain ~into:2);
  (* Failing walks take exactly 1 step. *)
  check_close 1.0 (Markov.Chain.expected_steps_given chain ~into:3)

let test_conditional_steps_mixture () =
  (* Two success routes of different lengths:
     S0 -> success directly w.p. 0.25, or S0 -> S1 (0.25) -> success.
     Conditional on success: P(1 step) = P(2 steps) = 1/2 -> 1.5. *)
  let chain =
    Markov.Chain.create ~num_states:4 ~start:0
      ~edges:[ (0, 2, 0.25); (0, 1, 0.25); (0, 3, 0.5); (1, 2, 1.0) ]
  in
  check_close 1.5 (Markov.Chain.expected_steps_given chain ~into:2)

let test_conditional_steps_impossible () =
  let chain = Markov.Chain.create ~num_states:2 ~start:0 ~edges:[ (0, 1, 1.0) ] in
  (* A state never absorbed into: probability 0 -> nan. *)
  let chain2 = Markov.Chain.create ~num_states:3 ~start:0 ~edges:[ (0, 1, 1.0) ] in
  ignore chain;
  Alcotest.(check bool) "nan on impossible target" true
    (Float.is_nan (Markov.Chain.expected_steps_given chain2 ~into:2))

let test_reach_probabilities () =
  let chain =
    Markov.Chain.create ~num_states:4 ~start:0
      ~edges:[ (0, 1, 0.7); (0, 3, 0.3); (1, 2, 0.7); (1, 3, 0.3) ]
  in
  (* Reaching S2 from S1 is the same chain started at S1. *)
  let from_1 =
    Markov.Chain.create ~num_states:4 ~start:1
      ~edges:[ (0, 1, 0.7); (0, 3, 0.3); (1, 2, 0.7); (1, 3, 0.3) ]
  in
  check_close 0.49 (Markov.Chain.absorption_probability chain ~into:2);
  check_close 0.7 (Markov.Chain.absorption_probability from_1 ~into:2);
  (* Conditioned on reaching S2, every route takes both hops. *)
  check_close 2.0 (Markov.Chain.expected_steps_given chain ~into:2)

let test_hops_at_q0_equal_distance () =
  (* Without failures every chain takes exactly h hops to a phase-h
     target. *)
  List.iter
    (fun h ->
      check_close ~msg:"tree" (float_of_int h)
        (Markov.Routing_chains.expected_hops_given_success
           (Markov.Routing_chains.tree ~h ~q:0.0));
      check_close ~msg:"ring" (float_of_int h)
        (Markov.Routing_chains.expected_hops_given_success
           (Markov.Routing_chains.ring ~h ~q:0.0)))
    [ 1; 3; 7 ]

let test_xor_hops_exceed_phases_under_failure () =
  (* Suboptimal hops lengthen successful routes. *)
  let h = 8 in
  let hops =
    Markov.Routing_chains.expected_hops_given_success (Markov.Routing_chains.xor ~h ~q:0.3)
  in
  Alcotest.(check bool) (Printf.sprintf "%.3f > %d" hops h) true (hops > float_of_int h)

let test_tree_hops_shrink_under_failure () =
  (* Tree has no suboptimal hops: conditioning on success biases toward
     shorter routes, so hops strictly decrease with q. *)
  let hops q =
    Experiments.Latency.predicted_hops Rcm.Geometry.Tree ~d:10 ~q
  in
  Alcotest.(check bool) "decreasing" true (hops 0.3 < hops 0.0)

let test_predicted_hops_at_q0 () =
  (* Mean distance over n(h) = C(d,h): d/2 (excluding the self pair). *)
  let d = 10 in
  let expected = float_of_int d /. 2.0 *. 1024.0 /. 1023.0 in
  check_loose expected (Experiments.Latency.predicted_hops Rcm.Geometry.Tree ~d ~q:0.0);
  check_loose expected (Experiments.Latency.predicted_hops Rcm.Geometry.Hypercube ~d ~q:0.0)

let test_e7_exactness_for_tree_hypercube () =
  let cfg =
    { Experiments.Latency.default_config with bits = 10; qs = [ 0.0; 0.2 ]; trials = 2;
      pairs = 2_000 }
  in
  let series = Experiments.Latency.run_all cfg in
  let simulated_hops g q =
    Option.get (Helpers.value_at series ~label:(Rcm.Geometry.slug g ^ "(sim)") ~x:q)
  in
  List.iter
    (fun g ->
      List.iter
        (fun q ->
          let chain = Experiments.Latency.predicted_hops g ~d:10 ~q in
          let sim = simulated_hops g q in
          if Float.abs (chain -. sim) > 0.25 then
            Alcotest.failf "%s at q=%.1f: chain %.3f vs sim %.3f" (Rcm.Geometry.name g) q
              chain sim)
        cfg.Experiments.Latency.qs)
    [ Rcm.Geometry.Tree; Rcm.Geometry.Hypercube ]

let test_e7_upper_bound_for_phase_skippers () =
  (* For xor/ring/symphony the chain counts every phase, so it can only
     overestimate the simulated hop count. *)
  let cfg =
    { Experiments.Latency.default_config with bits = 10; qs = [ 0.1 ]; trials = 2;
      pairs = 1_500 }
  in
  let series = Experiments.Latency.run_all cfg in
  List.iter
    (fun g ->
      let chain = Experiments.Latency.predicted_hops g ~d:10 ~q:0.1 in
      let sim =
        Option.get (Helpers.value_at series ~label:(Rcm.Geometry.slug g ^ "(sim)") ~x:0.1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: chain %.2f >= sim %.2f" (Rcm.Geometry.name g) chain sim)
        true
        (chain >= sim -. 0.3))
    [ Rcm.Geometry.Xor; Rcm.Geometry.Ring; Rcm.Geometry.default_symphony ]

(* --- Hop-count distributions (E9) ---------------------------------------- *)

let test_hop_pmf_sums_to_one () =
  List.iter
    (fun (h, q) ->
      let pmf =
        Markov.Routing_chains.hop_distribution_given_success
          (Markov.Routing_chains.hypercube ~h ~q)
      in
      check_close ~msg:(Printf.sprintf "h=%d q=%.1f" h q) 1.0 (Array.fold_left ( +. ) 0.0 pmf))
    [ (1, 0.0); (5, 0.2); (8, 0.5) ]

let test_hop_pmf_no_failure_is_point_mass () =
  (* q = 0: exactly h hops with probability 1. *)
  let pmf =
    Markov.Routing_chains.hop_distribution_given_success
      (Markov.Routing_chains.tree ~h:5 ~q:0.0)
  in
  check_close 1.0 pmf.(5);
  Alcotest.(check int) "length" 6 (Array.length pmf)

let test_hop_pmf_mean_matches_conditional_expectation () =
  let routing = Markov.Routing_chains.xor ~h:8 ~q:0.3 in
  let pmf = Markov.Routing_chains.hop_distribution_given_success routing in
  let mean = ref 0.0 in
  Array.iteri (fun t p -> mean := !mean +. (float_of_int t *. p)) pmf;
  check_loose (Markov.Routing_chains.expected_hops_given_success routing) !mean

let test_absorption_time_distribution_simple () =
  (* 0 -> 1 (0.5) -> 2 (1.0); 0 -> 3 (0.5): success mass arrives only at
     step 2 with probability 0.5. *)
  let chain =
    Markov.Chain.create ~num_states:4 ~start:0
      ~edges:[ (0, 1, 0.5); (0, 3, 0.5); (1, 2, 1.0) ]
  in
  let pmf = Markov.Chain.absorption_time_distribution chain ~into:2 in
  check_close 0.0 pmf.(0);
  check_close 0.0 pmf.(1);
  check_close 0.5 pmf.(2)

let test_e9_exact_for_hypercube () =
  let cfg = { Experiments.Hop_distribution.default_config with trials = 2; pairs = 3_000 } in
  List.iter
    (fun g ->
      let series = Experiments.Hop_distribution.run cfg g in
      let chain = Helpers.column series "chain" and sim = Helpers.column series "sim" in
      let tv = Helpers.total_variation chain sim in
      Alcotest.(check bool)
        (Printf.sprintf "%s TV %.4f < 0.04" (Rcm.Geometry.name g) tv)
        true (tv < 0.04))
    [ Rcm.Geometry.Tree; Rcm.Geometry.Hypercube ]

let suite =
  [
    ("conditional steps simple", `Quick, test_conditional_steps_simple);
    ("hop pmf sums to one", `Quick, test_hop_pmf_sums_to_one);
    ("hop pmf point mass at q=0", `Quick, test_hop_pmf_no_failure_is_point_mass);
    ("hop pmf mean = conditional expectation", `Quick, test_hop_pmf_mean_matches_conditional_expectation);
    ("absorption time distribution", `Quick, test_absorption_time_distribution_simple);
    ("E9 pmf exact for tree/hypercube", `Slow, test_e9_exact_for_hypercube);
    ("conditional steps mixture", `Quick, test_conditional_steps_mixture);
    ("conditional steps impossible", `Quick, test_conditional_steps_impossible);
    ("reach probabilities", `Quick, test_reach_probabilities);
    ("hops at q=0 equal distance", `Quick, test_hops_at_q0_equal_distance);
    ("xor hops exceed phases under failure", `Quick, test_xor_hops_exceed_phases_under_failure);
    ("tree hops shrink under failure", `Quick, test_tree_hops_shrink_under_failure);
    ("predicted hops at q=0", `Quick, test_predicted_hops_at_q0);
    ("E7 exact for tree/hypercube", `Slow, test_e7_exactness_for_tree_hypercube);
    ("E7 upper bound for phase skippers", `Slow, test_e7_upper_bound_for_phase_skippers);
  ]
