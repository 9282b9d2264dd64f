open Helpers

let bits = 8

let build ?(seed = 17) geometry =
  Overlay.Table.build ~rng:(rng_of_seed seed) ~bits geometry

let test_node_count () =
  List.iter
    (fun g ->
      Alcotest.(check int) (Rcm.Geometry.name g) 256 (Overlay.Table.node_count (build g)))
    Rcm.Geometry.all_default

let test_degrees () =
  let expect g degree =
    let t = build g in
    for v = 0 to 255 do
      Alcotest.(check int) (Rcm.Geometry.name g) degree (Array.length (Overlay.Table.neighbors t v))
    done
  in
  expect Rcm.Geometry.Tree bits;
  expect Rcm.Geometry.Hypercube bits;
  expect Rcm.Geometry.Xor bits;
  expect Rcm.Geometry.Ring bits;
  expect (Rcm.Geometry.Symphony { k_n = 2; k_s = 3 }) 5

let test_tree_neighbors_flip_one_bit () =
  let t = build Rcm.Geometry.Tree in
  for v = 0 to 255 do
    for i = 0 to bits - 1 do
      let n = Overlay.Table.neighbor t v i in
      Alcotest.(check int) "level neighbour flips exactly bit i+1"
        (Idspace.Id.flip_bit ~bits v (i + 1))
        n
    done
  done

let test_xor_neighbors_prefix_property () =
  (* Level-(i+1) contact: matches the first i bits, differs at bit
     i+1. *)
  let t = build Rcm.Geometry.Xor in
  for v = 0 to 255 do
    for i = 0 to bits - 1 do
      let n = Overlay.Table.neighbor t v i in
      let level = i + 1 in
      Alcotest.(check int) "prefix length exactly level-1" (level - 1)
        (Idspace.Id.common_prefix_length ~bits v n);
      Alcotest.(check bool) "bit level differs" true
        (Idspace.Id.get_bit ~bits v level <> Idspace.Id.get_bit ~bits n level)
    done
  done

let test_xor_suffix_randomised () =
  (* With random suffixes, at least one high-level contact must differ
     from the pure bit-flip (probability of this failing over all nodes
     is ~2^-1500). *)
  let t = build Rcm.Geometry.Xor in
  let any_random = ref false in
  for v = 0 to 255 do
    let n = Overlay.Table.neighbor t v 0 in
    if n <> Idspace.Id.flip_bit ~bits v 1 then any_random := true
  done;
  Alcotest.(check bool) "suffixes randomised" true !any_random

let test_ring_fingers () =
  let t = build Rcm.Geometry.Ring in
  for v = 0 to 255 do
    for i = 0 to bits - 1 do
      Alcotest.(check int) "finger distance 2^i" (1 lsl i)
        (Idspace.Id.ring_distance ~bits v (Overlay.Table.neighbor t v i))
    done
  done

let test_randomized_ring_fingers () =
  let t = Overlay.Table.build_randomized_ring ~rng:(rng_of_seed 3) ~bits () in
  for v = 0 to 255 do
    for i = 0 to bits - 1 do
      let dist = Idspace.Id.ring_distance ~bits v (Overlay.Table.neighbor t v i) in
      if dist < 1 lsl i || dist >= 1 lsl (i + 1) then
        Alcotest.failf "finger %d of %d at distance %d outside [2^%d, 2^%d)" i v dist i (i + 1)
    done
  done

let test_symphony_structure () =
  let k_n = 2 and k_s = 2 in
  let t = build (Rcm.Geometry.Symphony { k_n; k_s }) in
  for v = 0 to 255 do
    (* Near neighbours are the next k_n nodes clockwise. *)
    for i = 0 to k_n - 1 do
      Alcotest.(check int) "near neighbour" (i + 1)
        (Idspace.Id.ring_distance ~bits v (Overlay.Table.neighbor t v i))
    done;
    (* Shortcuts land strictly forward on the ring. *)
    for i = k_n to k_n + k_s - 1 do
      let dist = Idspace.Id.ring_distance ~bits v (Overlay.Table.neighbor t v i) in
      Alcotest.(check bool) "shortcut forward" true (dist >= 1 && dist <= 255)
    done
  done

(* Geometry.check_size's Symphony rule, which both table builders
   apply through it and the model and the chain state alike: without
   it a negative k_n built a table of shortcuts only and a negative k_s
   one of fewer entries than near neighbours. *)
let test_symphony_parameters_rejected () =
  List.iter
    (fun (k_n, k_s) ->
      let rejected context build =
        Alcotest.check_raises
          (Printf.sprintf "%s k_n = %d, k_s = %d" context k_n k_s)
          (Invalid_argument
             (Printf.sprintf "%s: symphony needs k_s >= 1, k_n >= 0 (got k_n = %d, k_s = %d)"
                context k_n k_s))
          (fun () -> ignore (build ()))
      in
      rejected "Table.build" (fun () ->
          Overlay.Table.build ~bits:6 (Rcm.Geometry.Symphony { k_n; k_s }));
      rejected "Table.build_symphony_bidirectional" (fun () ->
          Overlay.Table.build_symphony_bidirectional ~bits:6 ~k_n ~k_s ()))
    [ (-1, 3); (2, -1); (0, 0) ];
  Alcotest.(check int) "k_n = 0 builds" 1
    (Array.length (Overlay.Table.neighbors (Overlay.Table.build ~bits:6 (Rcm.Geometry.Symphony { k_n = 0; k_s = 1 })) 0))

let test_deterministic_xor_table () =
  let t = Overlay.Table.build_deterministic_xor ~bits () in
  Alcotest.(check bool) "geometry tag" true
    (Rcm.Geometry.equal (Overlay.Table.geometry t) Rcm.Geometry.Xor);
  for v = 0 to 255 do
    for i = 0 to bits - 1 do
      Alcotest.(check int) "pure bit flip"
        (Idspace.Id.flip_bit ~bits v (i + 1))
        (Overlay.Table.neighbor t v i)
    done
  done

let test_build_reproducible () =
  let t1 = build ~seed:5 Rcm.Geometry.Xor in
  let t2 = build ~seed:5 Rcm.Geometry.Xor in
  for v = 0 to 255 do
    Alcotest.(check (array int)) "same tables" (Overlay.Table.neighbors t1 v)
      (Overlay.Table.neighbors t2 v)
  done

(* A full ring overlay is connected: one component holding all 256
   nodes, read through the table in place. *)
let test_one_component () =
  let t = build Rcm.Geometry.Ring in
  let r =
    Graph.Components.analyze_iter ~nodes:(Overlay.Table.node_count t)
      (Overlay.Table.iter_neighbors t)
  in
  Alcotest.(check int) "one component" 1 r.Graph.Components.component_count;
  Alcotest.(check int) "largest" 256 r.Graph.Components.largest

let test_failure_sampling () =
  let rng = rng_of_seed 23 in
  let mask = Overlay.Failure.sample ~rng ~q:0.3 10_000 in
  let alive = Helpers.alive_count mask in
  Alcotest.(check bool)
    (Printf.sprintf "alive fraction %.3f ~ 0.7" (float_of_int alive /. 10_000.0))
    true
    (abs (alive - 7_000) < 200)

let test_failure_extremes () =
  let rng = rng_of_seed 1 in
  Alcotest.(check int) "q=0 all alive" 100
    (Helpers.alive_count (Overlay.Failure.sample ~rng ~q:0.0 100));
  Alcotest.(check int) "q=1 all dead" 0
    (Helpers.alive_count (Overlay.Failure.sample ~rng ~q:1.0 100))

let test_failure_survivors_kill () =
  let mask = Overlay.Failure.none 5 in
  Helpers.kill mask [| 1; 3 |];
  Alcotest.(check (array int)) "survivors" [| 0; 2; 4 |] (Overlay.Failure.survivors mask);
  Alcotest.(check int) "count" 3 (Helpers.alive_count mask)

(* The dead region of a block sample must be one circular run: walking
   the mask around the ring crosses at most one alive->dead edge. *)
let circular_dead_runs mask =
  let n = Overlay.Failure.length mask in
  let transitions = ref 0 in
  for i = 0 to n - 1 do
    if Overlay.Failure.get mask i && not (Overlay.Failure.get mask ((i + 1) mod n)) then
      incr transitions
  done;
  !transitions

let test_block_failure_size_and_contiguity () =
  List.iter
    (fun (fraction, n) ->
      let rng = Prng.Splitmix.create ~seed:(int_of_float (fraction *. 1000.) + n) in
      let mask = Overlay.Failure.sample_block ~rng ~fraction n in
      let dead = n - Helpers.alive_count mask in
      Alcotest.(check int)
        (Printf.sprintf "dead = round(%g * %d)" fraction n)
        (int_of_float (Float.round (fraction *. float_of_int n)))
        dead;
      Alcotest.(check bool)
        (Printf.sprintf "contiguous mod %d" n)
        true
        (circular_dead_runs mask <= 1))
    [ (0.25, 64); (0.33, 100); (0.5, 7); (0.8, 250); (0.01, 10) ]

let test_block_failure_wraparound () =
  (* Force the wrap: a deterministic rng whose start offset lands near
     the end of the ring still kills exactly round(fraction * n) ids,
     in one circular run. *)
  let n = 32 in
  let found_wrap = ref false in
  for seed = 0 to 63 do
    let rng = Prng.Splitmix.create ~seed in
    let mask = Overlay.Failure.sample_block ~rng ~fraction:0.5 n in
    Alcotest.(check int) "dead count under wrap" 16 (n - Helpers.alive_count mask);
    Alcotest.(check bool) "one circular run" true (circular_dead_runs mask <= 1);
    if (not (Overlay.Failure.get mask (n - 1))) && not (Overlay.Failure.get mask 0) then
      found_wrap := true
  done;
  Alcotest.(check bool) "some seed wrapped past n-1" true !found_wrap

let test_block_failure_deterministic_and_extreme () =
  let sample seed =
    Overlay.Failure.sample_block ~rng:(Prng.Splitmix.create ~seed) ~fraction:0.3 40
  in
  Alcotest.(check (array bool)) "same seed, same block"
    (Overlay.Failure.to_bool_array (sample 9))
    (Overlay.Failure.to_bool_array (sample 9));
  Alcotest.(check int) "fraction 0 kills nobody" 20
    (Helpers.alive_count
       (Overlay.Failure.sample_block ~rng:(Prng.Splitmix.create ~seed:1) ~fraction:0.0 20));
  Alcotest.(check int) "fraction 1 kills everyone" 0
    (Helpers.alive_count
       (Overlay.Failure.sample_block ~rng:(Prng.Splitmix.create ~seed:1) ~fraction:1.0 20));
  Alcotest.check_raises "invalid fraction rejected"
    (Invalid_argument "Failure.sample_block: invalid fraction") (fun () ->
      ignore (Overlay.Failure.sample_block ~rng:(Prng.Splitmix.create ~seed:1) ~fraction:1.5 10))

let neighbors_within_space =
  qcheck "all neighbours lie inside the id space"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      List.for_all
        (fun g ->
          let t = build ~seed g in
          let ok = ref true in
          for v = 0 to Overlay.Table.node_count t - 1 do
            Overlay.Table.iter_neighbors t v (fun n -> if n < 0 || n > 255 then ok := false)
          done;
          !ok)
        Rcm.Geometry.all_default)

let no_self_loops =
  qcheck "no node is its own neighbour"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      List.for_all
        (fun g ->
          let t = build ~seed g in
          let ok = ref true in
          for v = 0 to Overlay.Table.node_count t - 1 do
            Overlay.Table.iter_neighbors t v (fun n -> if n = v then ok := false)
          done;
          !ok)
        Rcm.Geometry.all_default)

let suite =
  [
    ("node count", `Quick, test_node_count);
    ("degrees", `Quick, test_degrees);
    ("tree neighbours flip one bit", `Quick, test_tree_neighbors_flip_one_bit);
    ("xor neighbour prefix property", `Quick, test_xor_neighbors_prefix_property);
    ("xor suffixes randomised", `Quick, test_xor_suffix_randomised);
    ("ring fingers at 2^i", `Quick, test_ring_fingers);
    ("randomized ring fingers in [2^i, 2^i+1)", `Quick, test_randomized_ring_fingers);
    ("symphony structure", `Quick, test_symphony_structure);
    ("deterministic xor table", `Quick, test_deterministic_xor_table);
    ("build reproducible", `Quick, test_build_reproducible);
    ("ring is one component", `Quick, test_one_component);
    ("failure sampling", `Quick, test_failure_sampling);
    ("failure extremes", `Quick, test_failure_extremes);
    ("failure survivors/kill", `Quick, test_failure_survivors_kill);
    ("block failure: size and contiguity", `Quick, test_block_failure_size_and_contiguity);
    ("block failure: wraparound", `Quick, test_block_failure_wraparound);
    ("block failure: deterministic + extremes", `Quick,
      test_block_failure_deterministic_and_extreme);
    neighbors_within_space;
    no_self_loops;
    ("symphony parameters rejected", `Quick, test_symphony_parameters_rejected);
  ]
