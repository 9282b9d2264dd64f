open Helpers

let torus = Overlay.Torus.build ~dim:3 ~side:4

let test_build_shape () =
  Alcotest.(check int) "size" 64 (Overlay.Torus.node_count torus);
  Alcotest.(check int) "dim" 3 (Overlay.Torus.dim torus);
  Alcotest.(check int) "side" 4 (Overlay.Torus.side torus)

let test_side2_degree () =
  (* At side 2 a step either way along a dimension reaches the same
     node, so the torus is the 5-cube: its distance is Hamming's. *)
  let h = Overlay.Torus.build ~dim:5 ~side:2 in
  Alcotest.(check int) "size" 32 (Overlay.Torus.node_count h);
  for v = 0 to 31 do
    Alcotest.(check int) "hamming" (Idspace.Id.hamming_distance 0 v) (Overlay.Torus.distance h 0 v)
  done

let test_coordinates_roundtrip () =
  for v = 0 to 63 do
    (* v = c0 + 4*c1 + 16*c2 *)
    let c0 = Overlay.Torus.coordinate torus v 0 in
    let c1 = Overlay.Torus.coordinate torus v 1 in
    let c2 = Overlay.Torus.coordinate torus v 2 in
    Alcotest.(check int) "mixed radix" v (c0 + (4 * c1) + (16 * c2));
    Alcotest.(check int) "with_coordinate" v (Overlay.Torus.with_coordinate torus v 1 c1)
  done

let test_ring_distance () =
  let ring = Overlay.Torus.build ~dim:1 ~side:4 in
  Alcotest.(check int) "forward" 1 (Overlay.Torus.distance ring 0 1);
  Alcotest.(check int) "wrap" 1 (Overlay.Torus.distance ring 0 3);
  Alcotest.(check int) "half" 2 (Overlay.Torus.distance ring 0 2)

let test_neighbors_at_distance_one () =
  (* A neighbour steps one unit along one dimension, either way. *)
  for v = 0 to 63 do
    for i = 0 to 2 do
      let c = Overlay.Torus.coordinate torus v i in
      List.iter
        (fun step ->
          let u = Overlay.Torus.with_coordinate torus v i ((c + step) mod 4) in
          Alcotest.(check int) "unit step" 1 (Overlay.Torus.distance torus v u))
        [ 1; 3 ]
    done
  done

let torus_distance_symmetric =
  qcheck "torus distance symmetric and bounded"
    QCheck2.Gen.(pair (int_range 0 63) (int_range 0 63))
    (fun (a, b) ->
      let d = Overlay.Torus.distance torus a b in
      d = Overlay.Torus.distance torus b a && d <= 6 && (d = 0) = (a = b))

let all_alive = Overlay.Failure.none 64

let test_route_q0_exact_hops () =
  let rng = rng_of_seed 3 in
  for src = 0 to 63 do
    for dst = 0 to 63 do
      match Routing.Torus_router.route torus ~rng ~alive:all_alive ~src ~dst with
      | Routing.Outcome.Delivered { hops } ->
          Alcotest.(check int) "hops = L1 distance" (Overlay.Torus.distance torus src dst) hops
      | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped at q=0"
    done
  done

let test_route_around_failure () =
  (* dim 2, side 4: 0 -> 5 via 1 or 4; killing 1 forces 4. *)
  let t = Overlay.Torus.build ~dim:2 ~side:4 in
  let alive = Overlay.Failure.none 16 in
  Helpers.kill alive [| 1 |];
  match Routing.Torus_router.route t ~rng:(rng_of_seed 1) ~alive ~src:0 ~dst:5 with
  | Routing.Outcome.Delivered { hops = 2 } -> ()
  | o -> Alcotest.failf "expected 2 hops, got %a" Routing.Outcome.pp o

let test_population_sums_to_n () =
  List.iter
    (fun (dim, side) ->
      let n = Numerics.Kahan.sum_array (Rcm.Torus_bounds.population ~dim ~side) in
      let expected = Float.pow (float_of_int side) (float_of_int dim) in
      check_close ~msg:(Printf.sprintf "%dx%d" dim side) expected n)
    [ (2, 64); (3, 16); (4, 8); (12, 2); (3, 5) ]

let test_population_hypercube_case () =
  (* side = 2: n(h) = C(dim, h). *)
  let n = Rcm.Torus_bounds.population ~dim:6 ~side:2 in
  for h = 0 to 6 do
    check_close ~msg:(Printf.sprintf "h=%d" h) (Numerics.Binomial.choose_float 6 h) n.(h)
  done

let test_population_small_ring () =
  (* dim = 1, side = 6: one node at 0, two at 1, two at 2, one at 3. *)
  let n = Rcm.Torus_bounds.population ~dim:1 ~side:6 in
  Alcotest.(check (array (float 1e-9))) "ring counts" [| 1.; 2.; 2.; 1. |] n

let test_upper_bound_equals_hypercube () =
  List.iter
    (fun q ->
      check_close
        (Rcm.Model.routability Rcm.Geometry.Hypercube ~d:10 ~q)
        (Rcm.Torus_bounds.routability_upper ~dim:10 ~side:2 ~q))
    [ 0.1; 0.3; 0.5 ]

let bounds_ordered =
  qcheck "lower bound <= upper bound"
    QCheck2.Gen.(pair prob_gen (int_range 0 3))
    (fun (q, i) ->
      let dim, side = List.nth [ (2, 16); (3, 8); (4, 4); (8, 2) ] i in
      Rcm.Torus_bounds.routability_lower ~dim ~side ~q
      <= Rcm.Torus_bounds.routability_upper ~dim ~side ~q +. 1e-9)

let test_a8_sandwich () =
  let cfg =
    { Experiments.Dimension_sweep.default_config with
      configurations = [ (2, 32); (5, 4) ]; qs = [ 0.1; 0.3 ]; trials = 2; pairs = 1_000 }
  in
  let series = Experiments.Dimension_sweep.run cfg in
  Alcotest.(check (list (pair (float 0.0) string)))
    "sandwich holds" []
    (List.concat_map
       (fun (dim, side) ->
         let label kind = Printf.sprintf "%dx%d(%s)" dim side kind in
         List.map
           (fun q -> (q, label "lo"))
           (violations series (label "lo") (label "sim") (fun lo sim -> sim < lo -. 0.03))
         @ List.map
             (fun q -> (q, label "up"))
             (violations series (label "up") (label "sim") (fun up sim -> sim > up +. 0.03)))
       cfg.Experiments.Dimension_sweep.configurations)

let test_a8_dimension_helps () =
  (* At fixed N, more dimensions = shorter paths with more options. *)
  let cfg =
    { Experiments.Dimension_sweep.default_config with
      configurations = [ (2, 32); (10, 2) ]; qs = [ 0.3 ]; trials = 3; pairs = 1_200 }
  in
  let series = Experiments.Dimension_sweep.run cfg in
  let low = Option.get (value_at series ~label:"2x32(sim)" ~x:0.3) in
  let high = Option.get (value_at series ~label:"10x2(sim)" ~x:0.3) in
  Alcotest.(check bool) (Printf.sprintf "%.3f < %.3f" low high) true (low < high)

let suite =
  [
    ("build shape", `Quick, test_build_shape);
    ("side=2 degree", `Quick, test_side2_degree);
    ("coordinates roundtrip", `Quick, test_coordinates_roundtrip);
    ("ring distance", `Quick, test_ring_distance);
    ("neighbours at distance 1", `Quick, test_neighbors_at_distance_one);
    torus_distance_symmetric;
    ("route q=0 exact hops", `Quick, test_route_q0_exact_hops);
    ("route around failure", `Quick, test_route_around_failure);
    ("population sums to N", `Quick, test_population_sums_to_n);
    ("population at side=2 is binomial", `Quick, test_population_hypercube_case);
    ("population of a ring", `Quick, test_population_small_ring);
    ("upper bound = hypercube at side=2", `Quick, test_upper_bound_equals_hypercube);
    bounds_ordered;
    ("A8 sandwich", `Slow, test_a8_sandwich);
    ("A8 dimension helps", `Slow, test_a8_dimension_helps);
  ]
