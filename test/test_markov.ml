open Helpers

(* A hand-solvable chain: S0 -> S1 (0.7) -> S2 (0.7), failures 0.3 each.
   P(absorb success) = 0.49. *)
let two_step =
  Markov.Chain.create ~num_states:4 ~start:0
    ~edges:[ (0, 1, 0.7); (0, 3, 0.3); (1, 2, 0.7); (1, 3, 0.3) ]

let test_chain_shape () =
  (* States without out-edges absorb; the others do not. *)
  check_close 1.0
    (Markov.Chain.absorption_probability two_step ~into:2
    +. Markov.Chain.absorption_probability two_step ~into:3);
  Alcotest.check_raises "0 not absorbing"
    (Invalid_argument "Chain.absorption_probability: target state is not absorbing")
    (fun () -> ignore (Markov.Chain.absorption_probability two_step ~into:0))

let test_chain_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Markov.Chain.validate two_step));
  let broken =
    Markov.Chain.create ~num_states:3 ~start:0 ~edges:[ (0, 1, 0.5); (0, 2, 0.4) ]
  in
  Alcotest.(check bool) "invalid" true (Result.is_error (Markov.Chain.validate broken))

let test_chain_rejects_bad_edges () =
  Alcotest.check_raises "probability > 1"
    (Invalid_argument "Chain.create: edge probability outside [0,1]") (fun () ->
      ignore (Markov.Chain.create ~num_states:2 ~start:0 ~edges:[ (0, 1, 1.5) ]));
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Chain.create: edge endpoint outside state range") (fun () ->
      ignore (Markov.Chain.create ~num_states:2 ~start:0 ~edges:[ (0, 5, 0.5) ]))

let test_absorption_hand_computed () =
  check_close 0.49 (Markov.Chain.absorption_probability two_step ~into:2);
  check_close 0.51 (Markov.Chain.absorption_probability two_step ~into:3)

let test_absorption_not_absorbing () =
  Alcotest.check_raises "into non-absorbing"
    (Invalid_argument "Chain.absorption_probability: target state is not absorbing")
    (fun () -> ignore (Markov.Chain.absorption_probability two_step ~into:1))

(* E[steps] from the absorption-time pmfs of the absorbing states. *)
let expected_steps chain absorbing =
  List.fold_left
    (fun acc into ->
      let pmf = Markov.Chain.absorption_time_distribution chain ~into in
      Array.fold_left ( +. ) acc (Array.mapi (fun t p -> float_of_int t *. p) pmf))
    0.0 absorbing

let test_expected_steps () =
  (* Visits: S0 always, S1 w.p. 0.7 -> E[steps] = 1.7. *)
  check_close 1.7 (expected_steps two_step [ 2; 3 ])

let test_visit_probabilities () =
  (* Visits by step: failure absorbs from S0 (0.3) or S1 (0.7 * 0.3). *)
  let fail = Markov.Chain.absorption_time_distribution two_step ~into:3 in
  Alcotest.(check (array (float 1e-12))) "failure by step" [| 0.0; 0.3; 0.21 |] fail;
  let success = Markov.Chain.absorption_time_distribution two_step ~into:2 in
  Alcotest.(check (array (float 1e-12))) "success by step" [| 0.0; 0.0; 0.49 |] success

let test_topological_order () =
  (* The same chain numbered against its order (S2 -> S1 -> S0): the
     solver must follow the edges, not the state numbers. *)
  let reversed =
    Markov.Chain.create ~num_states:4 ~start:2
      ~edges:[ (2, 1, 0.7); (2, 3, 0.3); (1, 0, 0.7); (1, 3, 0.3) ]
  in
  check_close 0.49 (Markov.Chain.absorption_probability reversed ~into:0);
  check_close 1.7 (expected_steps reversed [ 0; 3 ])

let test_cycle_detection () =
  let cyclic =
    Markov.Chain.create ~num_states:3 ~start:0
      ~edges:[ (0, 1, 1.0); (1, 0, 0.5); (1, 2, 0.5) ]
  in
  Alcotest.check_raises "cyclic" Markov.Chain.Cyclic (fun () ->
      ignore (Markov.Chain.absorption_probability cyclic ~into:2))

let test_iterative_on_cyclic () =
  (* 0 -> 1 (1.0); 1 -> 0 (0.5) | -> 2 (0.5): success is certain. *)
  let cyclic =
    Markov.Chain.create ~num_states:3 ~start:0
      ~edges:[ (0, 1, 1.0); (1, 0, 0.5); (1, 2, 0.5) ]
  in
  check_loose 1.0 (Markov.Chain.absorption_probability_iterative cyclic ~into:2)

let test_iterative_matches_dag () =
  check_loose
    (Markov.Chain.absorption_probability two_step ~into:2)
    (Markov.Chain.absorption_probability_iterative two_step ~into:2)

(* Random acyclic chains: the DAG solver and Gauss-Seidel must agree. *)
let random_dag_chain seed =
  let rng = rng_of_seed seed in
  let layers = 2 + Prng.Splitmix.int rng 5 in
  let num_states = layers + 2 in
  let success = layers and failure = layers + 1 in
  let edges = ref [] in
  for s = 0 to layers - 1 do
    let p_advance = 0.1 +. (0.8 *. Prng.Splitmix.float rng) in
    let p_fail = (1.0 -. p_advance) *. Prng.Splitmix.float rng in
    let p_skip = 1.0 -. p_advance -. p_fail in
    let next = if s + 1 >= layers then success else s + 1 in
    let skip_target = if s + 2 >= layers then success else s + 2 in
    edges := (s, next, p_advance) :: (s, failure, p_fail) :: (s, skip_target, p_skip) :: !edges
  done;
  (Markov.Chain.create ~num_states ~start:0 ~edges:!edges, success)

let dag_vs_iterative =
  qcheck "DAG solver matches Gauss-Seidel on random chains"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let chain, success = random_dag_chain seed in
      approx_equal ~rtol:1e-9 ~atol:1e-11
        (Markov.Chain.absorption_probability chain ~into:success)
        (Markov.Chain.absorption_probability_iterative chain ~into:success))

let absorption_sums_to_one =
  qcheck "success + failure absorption = 1"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let chain, success = random_dag_chain seed in
      approx_equal ~rtol:1e-12 1.0
        (Markov.Chain.absorption_probability chain ~into:success
        +. Markov.Chain.absorption_probability chain ~into:(success + 1)))

(* --- Routing chains: structure ------------------------------------------- *)

let all_routing_chains ~h ~q =
  [
    ("tree", Markov.Routing_chains.tree ~h ~q);
    ("hypercube", Markov.Routing_chains.hypercube ~h ~q);
    ("xor", Markov.Routing_chains.xor ~h ~q);
    ("ring", Markov.Routing_chains.ring ~h ~q);
    ("symphony", Markov.Routing_chains.symphony ~d:16 ~phases:h ~q ~k_n:1 ~k_s:1);
  ]

let test_routing_chains_validate () =
  List.iter
    (fun q ->
      List.iter
        (fun (name, r) ->
          match Markov.Chain.validate r.Markov.Routing_chains.chain with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s chain at q=%.2f invalid: %s" name q msg)
        (all_routing_chains ~h:6 ~q))
    (* Symphony's model domain at d=16 requires q^2 + 1/16 <= 1. *)
    [ 0.0; 0.05; 0.3; 0.7; 0.9 ]

let test_routing_chains_no_failure () =
  List.iter
    (fun (name, r) ->
      Alcotest.(check (float 1e-12))
        (name ^ " certain at q=0") 1.0
        (Markov.Routing_chains.success_probability r))
    (all_routing_chains ~h:6 ~q:0.0)

let test_routing_chains_complement () =
  List.iter
    (fun (name, r) ->
      check_close ~msg:(name ^ " success+failure=1") 1.0
        (Markov.Routing_chains.success_probability r
        +. Markov.Chain.absorption_probability r.Markov.Routing_chains.chain
             ~into:r.Markov.Routing_chains.failure))
    (all_routing_chains ~h:8 ~q:0.3)

let test_tree_chain_closed_form () =
  (* p = (1-q)^h for the tree chain. *)
  let r = Markov.Routing_chains.tree ~h:5 ~q:0.2 in
  check_close (0.8 ** 5.0) (Markov.Routing_chains.success_probability r)

let test_hypercube_chain_fig3 () =
  (* The worked example of Fig. 3: p(3,q) = (1-q^3)(1-q^2)(1-q). *)
  let q = 0.25 in
  let r = Markov.Routing_chains.hypercube ~h:3 ~q in
  check_close
    ((1.0 -. (q ** 3.0)) *. (1.0 -. (q ** 2.0)) *. (1.0 -. q))
    (Markov.Routing_chains.success_probability r)

let test_expected_hops_at_least_h () =
  (* With q = 0, routing takes exactly h hops in tree/hypercube chains. *)
  let r = Markov.Routing_chains.tree ~h:7 ~q:0.0 in
  check_close 7.0 (Markov.Routing_chains.expected_hops_given_success r);
  let r = Markov.Routing_chains.hypercube ~h:7 ~q:0.0 in
  check_close 7.0 (Markov.Routing_chains.expected_hops_given_success r)

let test_ring_phase_cap () =
  Alcotest.(check bool) "refuses huge chains" true
    (try
       ignore (Markov.Routing_chains.ring ~h:23 ~q:0.1);
       false
     with Invalid_argument _ -> true)

let test_symphony_domain () =
  (* d small + q large pushes k_s/d + q^2 past 1: refused. *)
  Alcotest.(check bool) "domain guard" true
    (try
       ignore (Markov.Routing_chains.symphony ~d:2 ~phases:2 ~q:0.95 ~k_n:0 ~k_s:1);
       false
     with Invalid_argument _ -> true)

let chain_success_decreases_in_q =
  qcheck "chain success probability decreases in q"
    QCheck2.Gen.(pair (float_range 0.05 0.45) (int_range 1 10))
    (fun (q, h) ->
      let p1 = Markov.Routing_chains.(success_probability (xor ~h ~q)) in
      let p2 = Markov.Routing_chains.(success_probability (xor ~h ~q:(q +. 0.5))) in
      p2 <= p1 +. 1e-12)

let chain_success_decreases_in_h =
  qcheck "chain success probability decreases in h"
    QCheck2.Gen.(pair (float_range 0.05 0.9) (int_range 1 9))
    (fun (q, h) ->
      let p1 = Markov.Routing_chains.(success_probability (ring ~h ~q)) in
      let p2 = Markov.Routing_chains.(success_probability (ring ~h:(h + 1) ~q)) in
      p2 <= p1 +. 1e-12)

let suite =
  [
    ("chain shape", `Quick, test_chain_shape);
    ("chain validate", `Quick, test_chain_validate);
    ("chain rejects bad edges", `Quick, test_chain_rejects_bad_edges);
    ("absorption hand-computed", `Quick, test_absorption_hand_computed);
    ("absorption target must absorb", `Quick, test_absorption_not_absorbing);
    ("expected steps", `Quick, test_expected_steps);
    ("visit probabilities", `Quick, test_visit_probabilities);
    ("topological order", `Quick, test_topological_order);
    ("cycle detection", `Quick, test_cycle_detection);
    ("iterative on cyclic chain", `Quick, test_iterative_on_cyclic);
    ("iterative matches dag", `Quick, test_iterative_matches_dag);
    dag_vs_iterative;
    absorption_sums_to_one;
    ("routing chains validate", `Quick, test_routing_chains_validate);
    ("routing chains certain at q=0", `Quick, test_routing_chains_no_failure);
    ("routing chains success+failure=1", `Quick, test_routing_chains_complement);
    ("tree chain closed form", `Quick, test_tree_chain_closed_form);
    ("hypercube chain fig3 example", `Quick, test_hypercube_chain_fig3);
    ("expected hops at q=0", `Quick, test_expected_hops_at_least_h);
    ("ring phase cap", `Quick, test_ring_phase_cap);
    ("symphony domain guard", `Quick, test_symphony_domain);
    chain_success_decreases_in_q;
    chain_success_decreases_in_h;
  ]
