open Helpers

let bits = 8

let size = 1 lsl bits

let build ?(seed = 29) geometry =
  Overlay.Table.build ~rng:(rng_of_seed seed) ~bits geometry

let all_alive = Overlay.Failure.none size

let route ?(rng_seed = 31) table ~alive ~src ~dst =
  Routing.Router.route table ~rng:(rng_of_seed rng_seed) ~alive ~src ~dst

(* --- No failures: everything delivers, with the right hop counts. ----- *)

let test_all_pairs_deliver_without_failures () =
  List.iter
    (fun g ->
      let table = build g in
      let failures = ref 0 in
      for src = 0 to size - 1 do
        (* A spread of destinations rather than the full quadratic set. *)
        List.iter
          (fun offset ->
            let dst = (src + offset) mod size in
            if dst <> src then
              match route table ~alive:all_alive ~src ~dst with
              | Routing.Outcome.Delivered _ -> ()
              | Routing.Outcome.Dropped _ -> incr failures)
          [ 1; 7; 85; 128; 255 ]
      done;
      Alcotest.(check int) (Rcm.Geometry.name g ^ ": no drops at q=0") 0 !failures)
    Rcm.Geometry.all_default

let test_self_route_zero_hops () =
  List.iter
    (fun g ->
      let table = build g in
      Alcotest.(check bool) "0 hops" true
        (Routing.Outcome.equal
           (route table ~alive:all_alive ~src:5 ~dst:5)
           (Routing.Outcome.Delivered { hops = 0 })))
    Rcm.Geometry.all_default

let test_tree_hops_equal_hamming () =
  let table = build Rcm.Geometry.Tree in
  for src = 0 to 63 do
    let dst = (src * 37 + 11) land 255 in
    if dst <> src then
      match route table ~alive:all_alive ~src ~dst with
      | Routing.Outcome.Delivered { hops } ->
          Alcotest.(check int) "hops = hamming" (Idspace.Id.hamming_distance src dst) hops
      | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped without failures"
  done

let test_hypercube_hops_equal_hamming () =
  let table = build Rcm.Geometry.Hypercube in
  for src = 0 to 63 do
    let dst = 255 - src in
    if dst <> src then
      match route table ~alive:all_alive ~src ~dst with
      | Routing.Outcome.Delivered { hops } ->
          Alcotest.(check int) "hops = hamming" (Idspace.Id.hamming_distance src dst) hops
      | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped without failures"
  done

let test_ring_hops_at_most_popcount () =
  (* Deterministic Chord with all fingers alive resolves the binary
     expansion of the distance: hops = popcount(distance). *)
  let table = build Rcm.Geometry.Ring in
  for src = 0 to 63 do
    let dst = (src + 147) land 255 in
    match route table ~alive:all_alive ~src ~dst with
    | Routing.Outcome.Delivered { hops } ->
        Alcotest.(check int) "hops = popcount(dist)"
          (Idspace.Id.hamming_distance 0 (Idspace.Id.ring_distance ~bits src dst))
          hops
    | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped without failures"
  done

let test_xor_distance_decreases () =
  let table = build Rcm.Geometry.Xor in
  let src = 3 and dst = 200 in
  let path = ref [ src ] in
  let outcome =
    Routing.Xor_router.route ~on_hop:(fun v -> path := v :: !path) table ~alive:all_alive
      ~src ~dst
  in
  Alcotest.(check bool) "delivered" true (Helpers.delivered outcome);
  let rec check_decreasing = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "xor distance strictly decreases" true
          (Idspace.Id.xor_distance b dst < Idspace.Id.xor_distance a dst);
        check_decreasing rest
    | [ _ ] | [] -> ()
  in
  check_decreasing (List.rev !path)

let test_route_with_path () =
  let table = build Rcm.Geometry.Ring in
  let outcome, path =
    Routing.Router.route_with_path table ~rng:(rng_of_seed 1) ~alive:all_alive ~src:0 ~dst:5
  in
  Alcotest.(check bool) "delivered" true (Helpers.delivered outcome);
  Alcotest.(check int) "path length = hops + 1"
    (Helpers.hops_of outcome + 1)
    (List.length path);
  Alcotest.(check int) "starts at src" 0 (List.hd path);
  Alcotest.(check int) "ends at dst" 5 (List.nth path (List.length path - 1))

(* --- Failures ------------------------------------------------------------ *)

let test_tree_dead_neighbor_drops () =
  let table = build Rcm.Geometry.Tree in
  (* Route 0 -> 255 must first hop to 128; kill it. *)
  let alive = Overlay.Failure.none size in
  Helpers.kill alive [| 128 |];
  match route table ~alive ~src:0 ~dst:255 with
  | Routing.Outcome.Dropped { hops = 0; stuck_at = 0 } -> ()
  | o -> Alcotest.failf "expected immediate drop, got %a" Routing.Outcome.pp o

let test_hypercube_routes_around_failure () =
  let table = build Rcm.Geometry.Hypercube in
  (* 0 -> 3 via 1 or 2; killing 1 must still deliver via 2. *)
  let alive = Overlay.Failure.none size in
  Helpers.kill alive [| 1 |];
  match route table ~alive ~src:0 ~dst:3 with
  | Routing.Outcome.Delivered { hops = 2 } -> ()
  | o -> Alcotest.failf "expected 2-hop delivery, got %a" Routing.Outcome.pp o

let test_hypercube_drops_when_surrounded () =
  let table = build Rcm.Geometry.Hypercube in
  let alive = Overlay.Failure.none size in
  Helpers.kill alive [| 1; 2 |];
  match route table ~alive ~src:0 ~dst:3 with
  | Routing.Outcome.Dropped { stuck_at = 0; _ } -> ()
  | o -> Alcotest.failf "expected drop at source, got %a" Routing.Outcome.pp o

let test_ring_suboptimal_progress () =
  (* 0 -> 6 normally goes via finger 2 (node 4). Killing 4 forces
     0 -> 2 (finger 1) -> 6: the suboptimal hop's progress is
     preserved. *)
  let table = build Rcm.Geometry.Ring in
  let alive = Overlay.Failure.none size in
  Helpers.kill alive [| 4 |];
  match route table ~alive ~src:0 ~dst:6 with
  | Routing.Outcome.Delivered { hops = 2 } -> ()
  | o -> Alcotest.failf "expected 2 hops via node 2, got %a" Routing.Outcome.pp o

let test_ring_successor_chain () =
  (* With only successors alive on the way, Chord degenerates to a
     successor walk: 0 -> 1 -> 2 -> 3. *)
  let table = build Rcm.Geometry.Ring in
  let alive = Overlay.Failure.none size in
  Helpers.kill alive [| 2 |];
  match route table ~alive ~src:0 ~dst:3 with
  | Routing.Outcome.Delivered { hops = 2 } ->
      (* 0 -> 1 (successor^... actually finger 1 of 1 reaches 3). *)
      ()
  | Routing.Outcome.Delivered { hops } -> Alcotest.failf "delivered in %d hops" hops
  | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped"

let test_symphony_walks_ring () =
  let table = build (Rcm.Geometry.Symphony { k_n = 1; k_s = 1 }) in
  (* Successor-only delivery always possible at q=0, even if long. *)
  match route table ~alive:all_alive ~src:10 ~dst:9 with
  | Routing.Outcome.Delivered { hops } -> Alcotest.(check bool) "hops <= 255" true (hops <= 255)
  | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped without failures"

let test_dropped_messages_report_position () =
  let table = build Rcm.Geometry.Tree in
  let alive = Helpers.mask_of_bools (Array.make size false) in
  Overlay.Failure.set alive 0 true;
  Overlay.Failure.set alive 255 true;
  match route table ~alive ~src:0 ~dst:255 with
  | Routing.Outcome.Dropped { stuck_at; hops } ->
      Alcotest.(check int) "stuck at source" 0 stuck_at;
      Alcotest.(check int) "no hops" 0 hops
  | Routing.Outcome.Delivered _ -> Alcotest.fail "cannot deliver through dead nodes"

let test_route_guards () =
  let table = build Rcm.Geometry.Tree in
  Alcotest.(check bool) "src outside space" true
    (try
       ignore (route table ~alive:all_alive ~src:(-1) ~dst:0);
       false
     with Invalid_argument _ -> true)

(* Path nodes (except possibly src) must be alive in any delivered
   route, for every geometry, under random failures. *)
let delivered_paths_are_alive =
  qcheck "delivered paths only traverse alive nodes"
    QCheck2.Gen.(int_range 0 2_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      List.for_all
        (fun g ->
          let table = build ~seed g in
          let alive = Overlay.Failure.sample ~rng ~q:0.2 size in
          let pool = Overlay.Failure.survivors alive in
          Array.length pool < 2
          ||
          let src, dst = Stats.Sampler.ordered_pair rng pool in
          let outcome, path = Routing.Router.route_with_path table ~rng ~alive ~src ~dst in
          match outcome with
          | Routing.Outcome.Delivered { hops } ->
              List.for_all (fun v -> Overlay.Failure.get alive v) path
              && hops = List.length path - 1
              && List.nth path (List.length path - 1) = dst
          | Routing.Outcome.Dropped { stuck_at; _ } ->
              (* The stuck node is the last path element and alive. *)
              stuck_at = List.nth path (List.length path - 1) && Overlay.Failure.get alive stuck_at)
        Rcm.Geometry.all_default)

(* Greedy ring routing never overshoots: remaining distance strictly
   decreases along the path. *)
let ring_distance_strictly_decreases =
  qcheck "ring routing strictly decreases remaining distance"
    QCheck2.Gen.(int_range 0 2_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let table = build ~seed Rcm.Geometry.Ring in
      let alive = Overlay.Failure.sample ~rng ~q:0.3 size in
      let pool = Overlay.Failure.survivors alive in
      Array.length pool < 2
      ||
      let src, dst = Stats.Sampler.ordered_pair rng pool in
      let _, path = Routing.Router.route_with_path table ~rng ~alive ~src ~dst in
      let rec decreasing = function
        | a :: (b :: _ as rest) ->
            Idspace.Id.ring_distance ~bits b dst < Idspace.Id.ring_distance ~bits a dst
            && decreasing rest
        | [ _ ] | [] -> true
      in
      decreasing path)

let routing_deterministic_given_seed =
  qcheck "routing is deterministic given the rng seed"
    QCheck2.Gen.(int_range 0 2_000)
    (fun seed ->
      let table = build ~seed Rcm.Geometry.Hypercube in
      let alive = Overlay.Failure.sample ~rng:(rng_of_seed (seed + 1)) ~q:0.3 size in
      let r1 =
        Routing.Router.route table ~rng:(rng_of_seed 7) ~alive ~src:0 ~dst:255
      in
      let r2 =
        Routing.Router.route table ~rng:(rng_of_seed 7) ~alive ~src:0 ~dst:255
      in
      Routing.Outcome.equal r1 r2)

let suite =
  [
    ("all pairs deliver at q=0", `Quick, test_all_pairs_deliver_without_failures);
    ("self route", `Quick, test_self_route_zero_hops);
    ("tree hops = hamming", `Quick, test_tree_hops_equal_hamming);
    ("hypercube hops = hamming", `Quick, test_hypercube_hops_equal_hamming);
    ("ring hops = popcount", `Quick, test_ring_hops_at_most_popcount);
    ("xor distance decreases", `Quick, test_xor_distance_decreases);
    ("route_with_path", `Quick, test_route_with_path);
    ("tree: dead neighbour drops", `Quick, test_tree_dead_neighbor_drops);
    ("hypercube: routes around failure", `Quick, test_hypercube_routes_around_failure);
    ("hypercube: drops when surrounded", `Quick, test_hypercube_drops_when_surrounded);
    ("ring: suboptimal progress preserved", `Quick, test_ring_suboptimal_progress);
    ("ring: successor fallback", `Quick, test_ring_successor_chain);
    ("symphony: delivers at q=0", `Quick, test_symphony_walks_ring);
    ("drop reports position", `Quick, test_dropped_messages_report_position);
    ("route guards", `Quick, test_route_guards);
    delivered_paths_are_alive;
    ring_distance_strictly_decreases;
    routing_deterministic_given_seed;
  ]
