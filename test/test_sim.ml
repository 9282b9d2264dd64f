open Helpers

let test_estimate_no_failures () =
  (* q = 0: every sampled pair routes. *)
  List.iter
    (fun g ->
      let r =
        Sim.Estimate.run
          (Sim.Estimate.config ~trials:1 ~pairs_per_trial:300 ~seed:5 ~bits:8 ~q:0.0 g)
      in
      Alcotest.(check int)
        (Rcm.Geometry.name g ^ " all delivered")
        r.Sim.Estimate.attempted r.Sim.Estimate.delivered;
      check_close 1.0 (Sim.Estimate.routability r))
    Rcm.Geometry.all_default

let test_estimate_total_failure_region () =
  (* q = 0.95 at d = 8 leaves ~13 nodes: routability must be far below
     1 for the fragile geometries. *)
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:3 ~pairs_per_trial:300 ~seed:5 ~bits:8 ~q:0.95
         Rcm.Geometry.Tree)
  in
  Alcotest.(check bool) "tree barely routes" true (Sim.Estimate.routability r < 0.3)

let test_estimate_reproducible () =
  let cfg = Sim.Estimate.config ~trials:2 ~pairs_per_trial:200 ~seed:11 ~bits:8 ~q:0.2 Rcm.Geometry.Xor in
  let a = Sim.Estimate.run cfg in
  let b = Sim.Estimate.run cfg in
  Alcotest.(check int) "same delivered" a.Sim.Estimate.delivered b.Sim.Estimate.delivered;
  Alcotest.(check int) "same attempted" a.Sim.Estimate.attempted b.Sim.Estimate.attempted

let test_estimate_seed_sensitivity () =
  let mk seed =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:2 ~pairs_per_trial:500 ~seed ~bits:8 ~q:0.3 Rcm.Geometry.Ring)
  in
  Alcotest.(check bool) "different seeds differ" true
    ((mk 1).Sim.Estimate.delivered <> (mk 2).Sim.Estimate.delivered)

let test_estimate_matches_analysis_tree () =
  (* Tree chain is exact for the simulated protocol: the analytic value
     must fall within (a slightly padded) CI. *)
  let q = 0.2 and bits = 10 in
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:4 ~pairs_per_trial:2_500 ~seed:3 ~bits ~q Rcm.Geometry.Tree)
  in
  let analysis = Rcm.Model.routability Rcm.Geometry.Tree ~d:bits ~q in
  let ci =
    match r.Sim.Estimate.ci with
    | Some ci -> ci
    | None -> Alcotest.fail "expected a CI: pairs were attempted"
  in
  Alcotest.(check bool)
    (Printf.sprintf "analysis %.4f in CI [%.4f, %.4f]" analysis
       (Stats.Binomial_ci.lower ci) (Stats.Binomial_ci.upper ci))
    true
    (analysis >= Stats.Binomial_ci.lower ci -. 0.02
    && analysis <= Stats.Binomial_ci.upper ci +. 0.02)

let test_estimate_matches_analysis_hypercube () =
  let q = 0.3 and bits = 10 in
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:4 ~pairs_per_trial:2_500 ~seed:3 ~bits ~q
         Rcm.Geometry.Hypercube)
  in
  let analysis = Rcm.Model.routability Rcm.Geometry.Hypercube ~d:bits ~q in
  Alcotest.(check bool) "within 2%" true
    (Float.abs (Sim.Estimate.routability r -. analysis) < 0.02)

let test_estimate_ring_lower_bound () =
  let q = 0.3 and bits = 10 in
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:4 ~pairs_per_trial:2_500 ~seed:3 ~bits ~q Rcm.Geometry.Ring)
  in
  let analysis = Rcm.Model.routability Rcm.Geometry.Ring ~d:bits ~q in
  Alcotest.(check bool) "sim >= analysis - noise" true
    (Sim.Estimate.routability r >= analysis -. 0.02)

let test_estimate_hop_counts_reasonable () =
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:1 ~pairs_per_trial:500 ~seed:7 ~bits:10 ~q:0.0
         Rcm.Geometry.Hypercube)
  in
  let mean_hops = Stats.Summary.mean r.Sim.Estimate.hop_summary in
  (* Mean Hamming distance between random 10-bit ids is 5. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f ~ 5" mean_hops)
    true
    (Float.abs (mean_hops -. 5.0) < 0.5)

let contains_substring haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_estimate_no_survivors () =
  (* Regression: q = 1 kills every node, so no trial ever has the two
     survivors a routing attempt needs. The result used to fabricate a
     0-successes-of-1-trial CI; it must now say "no data" instead. *)
  let r =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:2 ~pairs_per_trial:100 ~seed:3 ~bits:6 ~q:1.0
         Rcm.Geometry.Xor)
  in
  Alcotest.(check int) "nothing attempted" 0 r.Sim.Estimate.attempted;
  Alcotest.(check bool) "no CI" true (r.Sim.Estimate.ci = None);
  Alcotest.(check bool) "routability is nan" true
    (Float.is_nan (Sim.Estimate.routability r));
  Alcotest.(check bool) "failed_percent is nan" true
    (Float.is_nan (Sim.Estimate.failed_percent r));
  let rendered = Fmt.str "%a" Sim.Estimate.pp_result r in
  Alcotest.(check bool)
    (Printf.sprintf "pp_result says no routable pairs: %S" rendered)
    true
    (contains_substring rendered "no routable pairs");
  (* The nan must survive into table and CSV renderings as "nan", not
     be rounded into a fake 0 or 100. *)
  let series =
    Experiments.Series.create ~title:"no-data" ~x_label:"q" ~x:[| 1.0 |]
      [ Experiments.Series.column ~label:"xor-sim" [| Sim.Estimate.failed_percent r |] ]
  in
  Alcotest.(check bool) "CSV renders nan" true
    (contains_substring (Experiments.Series.to_csv series) "nan");
  Alcotest.(check bool) "table renders nan" true
    (contains_substring (Fmt.str "%a" Experiments.Series.pp series) "nan")

let test_estimate_invalid_config () =
  Alcotest.(check bool) "zero trials" true
    (try
       ignore (Sim.Estimate.config ~trials:0 ~bits:8 ~q:0.1 Rcm.Geometry.Tree);
       false
     with Invalid_argument _ -> true)

let test_percolation_no_failures () =
  let r = Sim.Percolation.run ~trials:1 ~pairs:200 ~seed:9 ~bits:8 ~q:0.0 Rcm.Geometry.Ring in
  check_close 1.0 r.Sim.Percolation.mean_pair_connectivity;
  check_close 1.0 r.Sim.Percolation.mean_giant_fraction;
  check_close 1.0 r.Sim.Percolation.mean_routability

let test_percolation_gap_nonnegative () =
  (* Routability can never beat connectivity (up to sampling noise). *)
  List.iter
    (fun g ->
      List.iter
        (fun q ->
          let r = Sim.Percolation.run ~trials:2 ~pairs:500 ~seed:13 ~bits:8 ~q g in
          Alcotest.(check bool)
            (Printf.sprintf "%s q=%.1f gap %.4f >= 0" (Rcm.Geometry.name g) q
               (Sim.Percolation.routing_gap r))
            true
            (Sim.Percolation.routing_gap r >= -0.03))
        [ 0.1; 0.3 ])
    Rcm.Geometry.all_default

let test_percolation_tree_gap_large () =
  (* The tree's reachable component is much smaller than its connected
     component: the gap is what makes RCM necessary. *)
  let r = Sim.Percolation.run ~trials:2 ~pairs:800 ~seed:17 ~bits:10 ~q:0.3 Rcm.Geometry.Tree in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.3f > 0.3" (Sim.Percolation.routing_gap r))
    true
    (Sim.Percolation.routing_gap r > 0.3)

(* --- Sim.Trial contracts ------------------------------------------------------ *)

let trial_seeds_match_split =
  qcheck "trial: seeds are the states of successive splits"
    QCheck2.Gen.(pair int (int_range 1 8))
    (fun (seed, trials) ->
      let master = Prng.Splitmix.create ~seed in
      let split = Array.init trials (fun _ -> Prng.Splitmix.next_int64 master) in
      Sim.Trial.seeds ~seed ~trials = split)

let route_on table ~rng ~alive src dst = Routing.Router.route table ~rng ~alive ~src ~dst

(* The batch hook must be invisible: the same trial (tallies and hop
   histogram, which counts exactly the deliveries and ends in a
   positive count) and the generator left in the same state, for every
   paper geometry. The per-pair order of the two paths is
   [test_batch]'s [sample_and_route] case. *)
let trial_batch_equals_scalar =
  qcheck ~count:100 "trial: batch = scalar"
    QCheck2.Gen.(
      quad (oneofl Rcm.Geometry.all_default) (int_range 4 10) (float_range 0. 0.9)
        (pair (int_range 1 500) int))
    (fun (g, bits, q, (pairs, seed)) ->
      let was = Routing.Route_batch.enabled () in
      Fun.protect
        ~finally:(fun () -> Routing.Route_batch.set_enabled was)
        (fun () ->
          let build_rng = Prng.Splitmix.create ~seed in
          let table = Overlay.Table.build ~rng:build_rng ~bits g in
          let alive = Overlay.Failure.sample ~rng:build_rng ~q (Overlay.Table.node_count table) in
          let trial batch =
            Routing.Route_batch.set_enabled batch;
            let rng = Prng.Splitmix.copy build_rng in
            let t = Sim.Trial.run ~table ~rng ~alive ~pairs (route_on table ~rng ~alive) in
            (t, Prng.Splitmix.state rng)
          in
          let batch, batch_state = trial true in
          let scalar, scalar_state = trial false in
          let counts = batch.Sim.Trial.hop_counts in
          let n = Array.length counts in
          batch = scalar && batch_state = scalar_state
          && Array.fold_left ( + ) 0 counts = batch.Sim.Trial.delivered
          && (n = 0 || counts.(n - 1) > 0)))

let test_trial_too_few_survivors () =
  List.iter
    (fun live ->
      let alive = Helpers.mask_of_bools (Array.init 16 (fun v -> v < live)) in
      let rng = Prng.Splitmix.create ~seed:5 in
      let t =
        Sim.Trial.run ~rng ~alive ~pairs:10 (fun _ _ -> Alcotest.fail "routed a pair")
      in
      let name = Printf.sprintf "%d survivors" live in
      Alcotest.(check int) (name ^ ": nothing attempted") 0 t.Sim.Trial.attempted;
      Alcotest.(check int64) (name ^ ": no draw") (Prng.Splitmix.state (Prng.Splitmix.create ~seed:5))
        (Prng.Splitmix.state rng);
      Alcotest.(check bool) (name ^ ": routability is nan") true
        (Float.is_nan (Sim.Trial.routability [ t ])))
    [ 0; 1 ];
  Alcotest.(check bool) "no trials: nan" true (Float.is_nan (Sim.Trial.routability []));
  Alcotest.check_raises "no pairs" (Invalid_argument "Trial.run: need at least one pair")
    (fun () ->
      ignore
        (Sim.Trial.run ~rng:(Prng.Splitmix.create ~seed:1) ~alive:(Overlay.Failure.none 4)
           ~pairs:0 (fun _ _ -> Alcotest.fail "routed a pair")))

let test_trial_grid_pool_invariant () =
  let grid pool =
    Sim.Sweep.grid ?pool ~label:"xor" ~name:(Printf.sprintf "q=%g") ~seed:17 ~trials:3
      [ 0.1; 0.4 ] (fun q seed ->
        let rng = Prng.Splitmix.of_int64 seed in
        let table = Overlay.Table.build ~rng ~bits:7 Rcm.Geometry.Xor in
        let alive = Overlay.Failure.sample ~rng ~q 128 in
        Sim.Trial.run ~rng ~alive ~pairs:100 (route_on table ~rng ~alive))
  in
  let sequential = grid None in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check bool) "2-domain pool = no pool" true (grid (Some pool) = sequential));
  Alcotest.(check (list int)) "trials per point" [ 3; 3 ] (List.map List.length sequential)

(* q = 1 leaves no survivors: no experiment may report that as 0. *)
let test_no_survivors_is_nan () =
  let nan name v = Alcotest.(check bool) (name ^ " is nan") true (Float.is_nan v) in
  let at series label = Option.get (Helpers.value_at series ~label ~x:1.0) in
  nan "Correlated_failures.run_all"
    (at
       (Experiments.Correlated_failures.run_all
          { Experiments.Correlated_failures.default_config with
            bits = 6; trials = 2; pairs = 50; qs = [ 1.0 ] })
       "tree(iid)");
  nan "Base_sweep.tree_series"
    (at
       (Experiments.Base_sweep.tree_series
          { Experiments.Base_sweep.default_config with
            bits = 6; trials = 2; pairs = 50; groups = [ 1 ]; qs = [ 1.0 ] })
       "b=2(sim)");
  nan "Dimension_sweep.run"
    (at
       (Experiments.Dimension_sweep.run
          { Experiments.Dimension_sweep.default_config with
            trials = 2; pairs = 50; configurations = [ (2, 8) ]; qs = [ 1.0 ] })
       "2x8(sim)");
  let percolation =
    Sim.Percolation.run ~trials:2 ~pairs:50 ~seed:3 ~bits:6 ~q:1.0 Rcm.Geometry.Ring
  in
  nan "Percolation.run mean_routability" percolation.Sim.Percolation.mean_routability;
  nan "Percolation.run mean_pair_connectivity"
    percolation.Sim.Percolation.mean_pair_connectivity;
  nan "Percolation.run mean_giant_fraction" percolation.Sim.Percolation.mean_giant_fraction

let suite =
  [
    ("estimate: q=0 delivers all", `Quick, test_estimate_no_failures);
    ("estimate: near-total failure", `Quick, test_estimate_total_failure_region);
    ("estimate: reproducible", `Quick, test_estimate_reproducible);
    ("estimate: seed sensitivity", `Quick, test_estimate_seed_sensitivity);
    ("estimate vs analysis: tree exact", `Slow, test_estimate_matches_analysis_tree);
    ("estimate vs analysis: hypercube exact", `Slow, test_estimate_matches_analysis_hypercube);
    ("estimate vs analysis: ring bound", `Slow, test_estimate_ring_lower_bound);
    ("estimate: hop counts", `Quick, test_estimate_hop_counts_reasonable);
    ("estimate: all-dead trials report no data", `Quick, test_estimate_no_survivors);
    ("estimate: invalid config", `Quick, test_estimate_invalid_config);
    ("percolation: q=0", `Quick, test_percolation_no_failures);
    ("percolation: gap non-negative", `Slow, test_percolation_gap_nonnegative);
    ("percolation: tree gap large", `Slow, test_percolation_tree_gap_large);
    trial_seeds_match_split;
    trial_batch_equals_scalar;
    ("trial: fewer than two survivors", `Quick, test_trial_too_few_survivors);
    ("trial: grid pool-invariant", `Quick, test_trial_grid_pool_invariant);
    ("no survivors report nan", `Quick, test_no_survivors_is_nan);
  ]
