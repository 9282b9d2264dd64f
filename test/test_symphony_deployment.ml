open Helpers

let bits = 9

let size = 1 lsl bits

let build ?(seed = 71) ?(k_n = 1) ?(k_s = 1) () =
  Overlay.Table.build_symphony_bidirectional ~rng:(rng_of_seed seed) ~bits ~k_n ~k_s ()

let test_links_are_symmetric () =
  let t = build () in
  for v = 0 to size - 1 do
    Array.iter
      (fun u ->
        let back = Overlay.Table.neighbors t u in
        if not (Array.exists (Int.equal v) back) then
          Alcotest.failf "link %d -> %d has no reverse" v u)
      (Overlay.Table.neighbors t v)
  done

let test_near_neighbours_on_both_sides () =
  let t = build ~k_n:2 () in
  for v = 0 to size - 1 do
    let row = Overlay.Table.neighbors t v in
    List.iter
      (fun offset ->
        let expected = (v + offset) land (size - 1) in
        if not (Array.exists (Int.equal expected) row) then
          Alcotest.failf "node %d missing near neighbour at offset %d" v offset)
      [ 1; 2; -1 + size; -2 + size ]
  done

let test_mean_degree () =
  let t = build ~k_n:1 ~k_s:1 () in
  let total = ref 0 in
  for v = 0 to size - 1 do
    total := !total + Array.length (Overlay.Table.neighbors t v)
  done;
  let mean = float_of_int !total /. float_of_int size in
  (* 2(k_n + k_s) = 4, minus duplicate-link collapses (rare). *)
  Alcotest.(check bool) (Printf.sprintf "mean degree %.2f ~ 4" mean) true
    (mean > 3.6 && mean <= 4.0)

let test_delivers_at_q0 () =
  let t = build () in
  let alive = Overlay.Failure.none size in
  let drops = ref 0 in
  for src = 0 to size - 1 do
    let dst = (src + 201) land (size - 1) in
    if dst <> src then
      if
        not
          (Helpers.delivered (Routing.Bidirectional_ring.route t ~alive ~src ~dst))
      then incr drops
  done;
  Alcotest.(check int) "no drops" 0 !drops

let test_route_can_go_backwards () =
  (* Destination one step *behind* the source: bidirectional routing
     reaches it in one hop via the predecessor link. *)
  let t = build () in
  let alive = Overlay.Failure.none size in
  match Routing.Bidirectional_ring.route t ~alive ~src:100 ~dst:99 with
  | Routing.Outcome.Delivered { hops = 1 } -> ()
  | o -> Alcotest.failf "expected 1 hop backwards, got %a" Routing.Outcome.pp o

let bidirectional_paths_alive =
  qcheck "bidirectional delivered paths only traverse alive nodes"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = rng_of_seed seed in
      let t = build ~seed () in
      let alive = Overlay.Failure.sample ~rng ~q:0.3 size in
      let pool = Overlay.Failure.survivors alive in
      Array.length pool < 2
      ||
      let src, dst = Stats.Sampler.ordered_pair rng pool in
      let path = ref [ src ] in
      match
        Routing.Bidirectional_ring.route ~on_hop:(fun v -> path := v :: !path) t ~alive ~src
          ~dst
      with
      | Routing.Outcome.Delivered _ ->
          List.for_all (fun v -> Overlay.Failure.get alive v) !path && List.hd !path = dst
      | Routing.Outcome.Dropped { stuck_at; _ } -> Overlay.Failure.get alive stuck_at)

let test_a9_bidirectional_dominates () =
  let cfg =
    { Experiments.Symphony_deployment.default_config with
      bits = 10; qs = [ 0.05; 0.15; 0.3 ]; trials = 2; pairs = 1_000 }
  in
  let series = Experiments.Symphony_deployment.run cfg in
  Alcotest.(check bool) "deployed protocol dominates basic geometry" true
    (Helpers.violations series "sim(uni)" "sim(bidir)" (fun uni bidir -> bidir < uni -. 0.03)
    = [])

let suite =
  [
    ("links are symmetric", `Quick, test_links_are_symmetric);
    ("near neighbours both sides", `Quick, test_near_neighbours_on_both_sides);
    ("mean degree", `Quick, test_mean_degree);
    ("delivers at q=0", `Quick, test_delivers_at_q0);
    ("routes backwards", `Quick, test_route_can_go_backwards);
    bidirectional_paths_alive;
    ("A9 bidirectional dominates", `Slow, test_a9_bidirectional_dominates);
  ]
