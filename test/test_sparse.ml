open Helpers

let build ?(seed = 51) ?(bits = 10) ?(nodes = 200) geometry =
  Overlay.Sparse.build ~rng:(rng_of_seed seed) ~bits ~nodes geometry

(* The contact indexes of node [v]: row [v] of the uniform-degree block. *)
let contacts t v =
  let degree = Overlay.Sparse.degree t and targets = Overlay.Sparse.targets t in
  Array.init degree (fun i -> Int32.to_int targets.{(v * degree) + i})

let index_of_id t id =
  let i = Overlay.Sparse.successor_index t id in
  if Overlay.Sparse.id_of t i = id then Some i else None

let test_ids_sorted_distinct () =
  let t = build Rcm.Geometry.Ring in
  let ids = Array.init (Overlay.Sparse.node_count t) (Overlay.Sparse.id_of t) in
  for i = 1 to Array.length ids - 1 do
    if ids.(i) <= ids.(i - 1) then Alcotest.fail "ids not strictly increasing"
  done;
  Alcotest.(check int) "count" 200 (Array.length ids)

let test_dense_sampling_regime () =
  (* nodes close to 2^bits exercises the shuffle path. *)
  let t = build ~bits:8 ~nodes:250 Rcm.Geometry.Ring in
  Alcotest.(check int) "count" 250 (Overlay.Sparse.node_count t)

let test_fully_populated_extreme () =
  let t = build ~bits:6 ~nodes:64 Rcm.Geometry.Ring in
  for v = 0 to 63 do
    Alcotest.(check int) "identity ids" v (Overlay.Sparse.id_of t v)
  done

let test_lower_bound_and_successor () =
  let t = build Rcm.Geometry.Ring in
  let n = Overlay.Sparse.node_count t in
  (* successor of id 0 is index 0 if ids.(0) >= 0 (always). *)
  Alcotest.(check int) "successor of 0" 0 (Overlay.Sparse.successor_index t 0);
  (* Above the largest id, the successor wraps to index 0. *)
  let largest = Overlay.Sparse.id_of t (n - 1) in
  Alcotest.(check int) "wraps" 0 (Overlay.Sparse.successor_index t (largest + 1));
  (* lower_bound of each id is its own index. *)
  for v = 0 to n - 1 do
    Alcotest.(check int) "lower_bound of own id" v
      (Overlay.Sparse.lower_bound_within t ~lo:0 ~hi:n (Overlay.Sparse.id_of t v))
  done;
  (* Within a range, the search clamps to it. *)
  let lo = n / 4 and hi = n / 2 in
  for v = 0 to n - 1 do
    Alcotest.(check int) "lower_bound_within clamps"
      (max lo (min hi v))
      (Overlay.Sparse.lower_bound_within t ~lo ~hi (Overlay.Sparse.id_of t v))
  done;
  List.iter
    (fun (lo, hi) ->
      match Overlay.Sparse.lower_bound_within t ~lo ~hi 0 with
      | _ -> Alcotest.failf "range [%d, %d) accepted" lo hi
      | exception Invalid_argument _ -> ())
    [ (-1, 2); (3, 2); (0, n + 1) ]

let test_index_of_id () =
  let t = build Rcm.Geometry.Ring in
  Alcotest.(check (option int)) "existing" (Some 5)
    (index_of_id t (Overlay.Sparse.id_of t 5));
  (* Some id is unoccupied at 200/1024 occupancy; find one. *)
  let unoccupied = ref (-1) in
  for id = 0 to 1023 do
    if !unoccupied < 0 && index_of_id t id = None then unoccupied := id
  done;
  Alcotest.(check bool) "an unoccupied id exists" true (!unoccupied >= 0)

let test_prefix_range () =
  let t = build Rcm.Geometry.Xor in
  let bits = Overlay.Sparse.bits t in
  (* Every node must appear in the range of its own prefix, for every
     length. *)
  for v = 0 to Overlay.Sparse.node_count t - 1 do
    let id = Overlay.Sparse.id_of t v in
    for prefix_len = 0 to bits do
      let lo, hi = Overlay.Sparse.prefix_range t ~pattern:id ~prefix_len in
      if not (lo <= v && v < hi) then
        Alcotest.failf "node %d outside its own prefix range [%d,%d) at len %d" v lo hi
          prefix_len
    done
  done

let test_ring_fingers_are_successors () =
  let t = build Rcm.Geometry.Ring in
  let bits = Overlay.Sparse.bits t in
  let size = 1 lsl bits in
  for v = 0 to Overlay.Sparse.node_count t - 1 do
    let id_v = Overlay.Sparse.id_of t v in
    Array.iteri
      (fun i finger ->
        let target = (id_v + (1 lsl i)) land (size - 1) in
        (* The finger is the first occupied id clockwise from target:
           no occupied id lies strictly between target and the finger. *)
        let finger_id = Overlay.Sparse.id_of t finger in
        let gap = Idspace.Id.ring_distance ~bits target finger_id in
        for w = 0 to Overlay.Sparse.node_count t - 1 do
          let d = Idspace.Id.ring_distance ~bits target (Overlay.Sparse.id_of t w) in
          if d < gap then Alcotest.failf "finger %d of node %d not the closest successor" i v
        done)
      (contacts t v)
  done

let test_prefix_contacts_valid () =
  List.iter
    (fun g ->
      let t = build g in
      let bits = Overlay.Sparse.bits t in
      for v = 0 to Overlay.Sparse.node_count t - 1 do
        let id_v = Overlay.Sparse.id_of t v in
        Array.iteri
          (fun i contact ->
            if contact <> Overlay.Sparse.missing then begin
              let level = i + 1 in
              let id_c = Overlay.Sparse.id_of t contact in
              Alcotest.(check int) "prefix length" (level - 1)
                (Idspace.Id.common_prefix_length ~bits id_v id_c)
            end)
          (contacts t v)
      done)
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor ]

let test_symphony_contacts () =
  let t = build (Rcm.Geometry.Symphony { k_n = 2; k_s = 2 }) in
  let n = Overlay.Sparse.node_count t in
  for v = 0 to n - 1 do
    let contacts = contacts t v in
    Alcotest.(check int) "degree" 4 (Array.length contacts);
    Alcotest.(check int) "first near neighbour" ((v + 1) mod n) contacts.(0);
    Alcotest.(check int) "second near neighbour" ((v + 2) mod n) contacts.(1)
  done

let test_hypercube_rejected () =
  Alcotest.(check bool) "no sparse CAN" true
    (try
       ignore (build Rcm.Geometry.Hypercube);
       false
     with Invalid_argument _ -> true)

(* The same Symphony parameter rule as Table.build's. *)
let test_symphony_parameters_rejected () =
  List.iter
    (fun (k_n, k_s) ->
      Alcotest.check_raises
        (Printf.sprintf "k_n = %d, k_s = %d" k_n k_s)
        (Invalid_argument
           (Printf.sprintf
              "Sparse.build: symphony needs k_s >= 1, k_n >= 0 (got k_n = %d, k_s = %d)" k_n k_s))
        (fun () -> ignore (build (Rcm.Geometry.Symphony { k_n; k_s }))))
    [ (-1, 3); (2, -1); (0, 0) ]

let test_routing_no_failures () =
  let all_alive = Overlay.Failure.none 200 in
  List.iter
    (fun g ->
      let t = build g in
      let drops = ref 0 in
      for src = 0 to 199 do
        let dst = (src + 77) mod 200 in
        if dst <> src then
          if
            not
              (Helpers.delivered
                 (Routing.Sparse_router.route t ~alive:all_alive ~src ~dst))
          then incr drops
      done;
      Alcotest.(check int) (Rcm.Geometry.name g ^ ": no drops at q=0") 0 !drops)
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring;
      Rcm.Geometry.default_symphony ]

let test_routing_hop_bounds () =
  (* Sparse Chord delivers within ~2 log2 n hops at q = 0. *)
  let t = build ~nodes:400 Rcm.Geometry.Ring in
  let all_alive = Overlay.Failure.none 400 in
  for src = 0 to 399 do
    let dst = (src + 123) mod 400 in
    match Routing.Sparse_router.route t ~alive:all_alive ~src ~dst with
    | Routing.Outcome.Delivered { hops } ->
        if hops > 2 * 10 then Alcotest.failf "route took %d hops" hops
    | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped at q=0"
  done

let sparse_delivered_paths_alive =
  qcheck "sparse delivered paths only traverse alive nodes"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = rng_of_seed seed in
      List.for_all
        (fun g ->
          let t = build ~seed g in
          let alive = Overlay.Failure.sample ~rng ~q:0.25 200 in
          let pool = Overlay.Failure.survivors alive in
          Array.length pool < 2
          ||
          let src, dst = Stats.Sampler.ordered_pair rng pool in
          let path = ref [ src ] in
          let outcome =
            Routing.Sparse_router.route
              ~on_hop:(fun v -> path := v :: !path)
              t ~alive ~src ~dst
          in
          match outcome with
          | Routing.Outcome.Delivered { hops } ->
              List.for_all (fun v -> Overlay.Failure.get alive v) !path
              && hops = List.length !path - 1
              && List.hd !path = dst
          | Routing.Outcome.Dropped { stuck_at; _ } -> Overlay.Failure.get alive stuck_at)
        [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring;
          Rcm.Geometry.default_symphony ])

let test_full_occupancy_matches_dense_ring () =
  (* At 100% occupancy the sparse Chord construction degenerates to the
     deterministic dense table: finger i of v is exactly v + 2^i. *)
  let bits = 7 in
  let sparse = build ~bits ~nodes:(1 lsl bits) Rcm.Geometry.Ring in
  let dense = Overlay.Table.build ~bits Rcm.Geometry.Ring in
  for v = 0 to (1 lsl bits) - 1 do
    Alcotest.(check (array int)) "fingers coincide" (Overlay.Table.neighbors dense v)
      (contacts sparse v)
  done;
  (* And routing agrees outcome-for-outcome under the same failures. *)
  let rng = rng_of_seed 8 in
  let alive = Overlay.Failure.sample ~rng ~q:0.3 (1 lsl bits) in
  let pool = Overlay.Failure.survivors alive in
  for _ = 1 to 300 do
    let src, dst = Stats.Sampler.ordered_pair rng pool in
    let dense_outcome = Routing.Router.route dense ~rng ~alive ~src ~dst in
    let sparse_outcome = Routing.Sparse_router.route sparse ~alive ~src ~dst in
    if not (Routing.Outcome.equal dense_outcome sparse_outcome) then
      Alcotest.failf "outcomes diverge for %d -> %d: %a vs %a" src dst Routing.Outcome.pp
        dense_outcome Routing.Outcome.pp sparse_outcome
  done

(* --- the array-of-arrays model ---------------------------------------------

   The sparse builders and routers as they were before contacts moved
   into one flat block: per-node [Array.init] rows, binary-search
   fingers, [prefix_range] buckets, ids sorted after sampling, and
   closure-per-hop walks. The flat layout must reproduce them draw for
   draw: same ids, same contacts, same PRNG state after the build, and
   the same outcome and hop path for every route. It is the reference
   for the C passes that build the built-in overlays (ids in the dense
   regime, and every contact) and for the C walks. *)
module Model = struct
  type t = { bits : int; ids : int array; contacts : int array array }

  let missing = -1

  let lower_bound t target =
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if t.ids.(mid) >= target then search lo mid else search (mid + 1) hi
      end
    in
    search 0 (Array.length t.ids)

  let successor_index t target =
    let i = lower_bound t target in
    if i = Array.length t.ids then 0 else i

  let prefix_range t ~pattern ~prefix_len =
    if prefix_len = 0 then (0, Array.length t.ids)
    else begin
      let width = t.bits - prefix_len in
      let lo_id = pattern land lnot ((1 lsl width) - 1) in
      let hi_id = lo_id + (1 lsl width) in
      (lower_bound t lo_id, lower_bound t hi_id)
    end

  let sample_ids rng ~bits ~count =
    let size = 1 lsl bits in
    if 2 * count >= size then begin
      let all = Array.init size Fun.id in
      for i = size - 1 downto 1 do
        let j = Prng.Splitmix.int rng (i + 1) in
        let tmp = all.(i) in
        all.(i) <- all.(j);
        all.(j) <- tmp
      done;
      let chosen = Array.sub all 0 count in
      Array.sort compare chosen;
      chosen
    end
    else begin
      let seen = Hashtbl.create (2 * count) in
      let chosen = Array.make count 0 in
      let filled = ref 0 in
      while !filled < count do
        let id = Prng.Splitmix.int rng size in
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          chosen.(!filled) <- id;
          incr filled
        end
      done;
      Array.sort compare chosen;
      chosen
    end

  let ring_contacts t =
    let size = 1 lsl t.bits in
    Array.init (Array.length t.ids) (fun v ->
        Array.init t.bits (fun i ->
            let target = (t.ids.(v) + (1 lsl i)) land (size - 1) in
            successor_index t target))

  let prefix_contacts t rng =
    Array.init (Array.length t.ids) (fun v ->
        let id_v = t.ids.(v) in
        Array.init t.bits (fun i ->
            let level = i + 1 in
            let pattern = Idspace.Id.flip_bit ~bits:t.bits id_v level in
            let lo, hi = prefix_range t ~pattern ~prefix_len:level in
            if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)))

  let symphony_contacts t rng ~k_n ~k_s =
    let n = Array.length t.ids in
    Array.init n (fun v ->
        Array.init (k_n + k_s) (fun i ->
            if i < k_n then (v + i + 1) mod n
            else (v + Prng.Splitmix.harmonic_int rng ~n:(n - 1)) mod n))

  let record_contacts t rng ~group =
    let bits = t.bits in
    let b = 1 lsl group in
    let digits = bits / group in
    Array.init (Array.length t.ids) (fun v ->
        let id_v = t.ids.(v) in
        Array.init (digits * (b - 1)) (fun i ->
            let level = (i / (b - 1)) + 1 in
            let rank = (i mod (b - 1)) + 1 in
            let own = Idspace.Digit.get ~bits ~group id_v level in
            let pattern = Idspace.Digit.set ~bits ~group id_v level ((own + rank) mod b) in
            let lo, hi = prefix_range t ~pattern ~prefix_len:(level * group) in
            if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)))

  let group_of = function
    | Rcm.Geometry.Custom { params; _ } -> Idspace.Id.floor_log2 (List.assoc "h" params)
    | _ -> assert false

  let build rng ~bits ~nodes geometry =
    let t = { bits; ids = sample_ids rng ~bits ~count:nodes; contacts = [||] } in
    let contacts =
      match geometry with
      | Rcm.Geometry.Ring -> ring_contacts t
      | Rcm.Geometry.Tree | Rcm.Geometry.Xor -> prefix_contacts t rng
      | Rcm.Geometry.Symphony { k_n; k_s } -> symphony_contacts t rng ~k_n ~k_s
      | Rcm.Geometry.Custom _ -> record_contacts t rng ~group:(group_of geometry)
      | Rcm.Geometry.Hypercube -> assert false
    in
    { t with contacts }

  let route_ring ~on_hop t ~alive ~src ~dst =
    let ring_distance = Idspace.Id.ring_distance ~bits:t.bits in
    let id_dst = t.ids.(dst) in
    let rec step cur hops remaining =
      if remaining = 0 then Routing.Outcome.Delivered { hops }
      else begin
        let best = ref (-1) in
        let best_remaining = ref remaining in
        Array.iter
          (fun candidate ->
            if candidate <> missing && Overlay.Failure.get alive candidate then begin
              let after = ring_distance t.ids.(candidate) id_dst in
              if after < !best_remaining then begin
                best := candidate;
                best_remaining := after
              end
            end)
          t.contacts.(cur);
        if !best < 0 then Routing.Outcome.Dropped { hops; stuck_at = cur }
        else begin
          on_hop !best;
          step !best (hops + 1) !best_remaining
        end
      end
    in
    step src 0 (ring_distance t.ids.(src) id_dst)

  let route_prefix ~on_hop ~mode t ~alive ~src ~dst =
    let bits = t.bits in
    let id_dst = t.ids.(dst) in
    let rec step cur hops =
      if cur = dst then Routing.Outcome.Delivered { hops }
      else begin
        let diff = Idspace.Id.xor_distance t.ids.(cur) id_dst in
        let leading = bits - Idspace.Id.floor_log2 diff in
        let contacts = t.contacts.(cur) in
        let usable level =
          let candidate = contacts.(level - 1) in
          if candidate <> missing && Overlay.Failure.get alive candidate then Some candidate
          else None
        in
        let next =
          match mode with
          | `Tree -> usable leading
          | `Xor ->
              let rec try_level level =
                if level > bits then None
                else if Idspace.Id.get_bit ~bits diff level then
                  match usable level with
                  | Some _ as found -> found
                  | None -> try_level (level + 1)
                else try_level (level + 1)
              in
              try_level leading
        in
        match next with
        | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
        | Some next ->
            on_hop next;
            step next (hops + 1)
      end
    in
    step src 0

  let route_record ~on_hop ~group t ~alive ~src ~dst =
    let bits = t.bits in
    let b = 1 lsl group in
    let digits = bits / group in
    let id_dst = t.ids.(dst) in
    let rec step cur hops =
      if cur = dst then Routing.Outcome.Delivered { hops }
      else begin
        let id_cur = t.ids.(cur) in
        let contacts = t.contacts.(cur) in
        let leading = Option.get (Idspace.Digit.highest_differing ~bits ~group id_cur id_dst) in
        let rec try_level level =
          if level > digits then None
          else begin
            let own = Idspace.Digit.get ~bits ~group id_cur level in
            let want = Idspace.Digit.get ~bits ~group id_dst level in
            if own = want then try_level (level + 1)
            else begin
              let candidate = contacts.(((level - 1) * (b - 1)) + ((want - own + b) mod b) - 1) in
              if candidate <> missing && Overlay.Failure.get alive candidate then Some candidate
              else try_level (level + 1)
            end
          end
        in
        match try_level leading with
        | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
        | Some next ->
            on_hop next;
            step next (hops + 1)
      end
    in
    step src 0

  let route ~on_hop geometry t ~alive ~src ~dst =
    match geometry with
    | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> route_ring ~on_hop t ~alive ~src ~dst
    | Rcm.Geometry.Tree -> route_prefix ~on_hop ~mode:`Tree t ~alive ~src ~dst
    | Rcm.Geometry.Xor -> route_prefix ~on_hop ~mode:`Xor t ~alive ~src ~dst
    | Rcm.Geometry.Custom _ -> route_record ~on_hop ~group:(group_of geometry) t ~alive ~src ~dst
    | Rcm.Geometry.Hypercube -> assert false
end

let record4 = Result.get_ok (Rcm.Geometry.of_string "record:h=4")

(* Seed, geometry, bits 4..20 (even for record:h=4, whose digits are 2
   bits wide) and a node count in either sampling regime: the dense one
   (2 nodes >= 2^bits, capped at bits 12) shuffles the whole space,
   the sparse one (capped at 1500 nodes) rejects duplicate draws. Two
   edges get cases of their own: the smallest overlay, 2 nodes (at
   bits 2, in the dense regime; Symphony with one shortcut), and the
   regime boundary 2 nodes = 2^bits, the first node count that
   shuffles. *)
let model_case_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let* geometry =
    oneofl [ Rcm.Geometry.Ring; Rcm.Geometry.Tree; Rcm.Geometry.Xor;
             Rcm.Geometry.default_symphony; record4 ]
  in
  let* regime = oneofl [ `Dense; `Sparse; `Two; `Boundary ] in
  let* bits =
    match regime with
    | `Dense | `Boundary -> int_range 4 12
    | `Sparse -> int_range 4 20
    | `Two -> int_range 2 20
  in
  let bits = if Rcm.Geometry.equal geometry record4 then bits land lnot 1 else bits in
  (* Symphony's degree must stay below the node count. *)
  let geometry =
    match (regime, geometry) with
    | `Two, Rcm.Geometry.Symphony _ -> Rcm.Geometry.Symphony { k_n = 0; k_s = 1 }
    | _ -> geometry
  in
  let+ nodes =
    match regime with
    | `Dense -> int_range (1 lsl (bits - 1)) (1 lsl bits)
    | `Sparse -> int_range 3 (min 1500 ((1 lsl (bits - 1)) - 1))
    | `Two -> return 2
    | `Boundary -> return (1 lsl (bits - 1))
  in
  (seed, geometry, bits, nodes)

let flat_layout_matches_model =
  qcheck "flat layout = array-of-arrays model: ids, contacts, rng, routes" model_case_gen
    (fun (seed, geometry, bits, nodes) ->
      let case =
        Printf.sprintf "%s bits %d nodes %d seed %d" (Rcm.Geometry.slug geometry) bits nodes seed
      in
      let rng = rng_of_seed seed and model_rng = rng_of_seed seed in
      let t = Overlay.Sparse.build ~rng ~bits ~nodes geometry in
      let m = Model.build model_rng ~bits ~nodes geometry in
      if Prng.Splitmix.state rng <> Prng.Splitmix.state model_rng then
        QCheck2.Test.fail_reportf "%s: PRNG state after the build differs" case;
      for v = 0 to nodes - 1 do
        if Overlay.Sparse.id_of t v <> m.ids.(v) then
          QCheck2.Test.fail_reportf "%s: id %d differs" case v;
        if contacts t v <> m.contacts.(v) then
          QCheck2.Test.fail_reportf "%s: contacts of node %d differ" case v
      done;
      let alive = Overlay.Failure.sample ~rng ~q:(float_of_int (seed mod 6) /. 10.) nodes in
      for _ = 1 to 64 do
        let src = Prng.Splitmix.int rng nodes and dst = Prng.Splitmix.int rng nodes in
        let path = ref [] and model_path = ref [] in
        let outcome =
          Routing.Sparse_router.route ~on_hop:(fun v -> path := v :: !path) t ~alive ~src ~dst
        in
        let expected =
          Model.route ~on_hop:(fun v -> model_path := v :: !model_path) geometry m ~alive ~src ~dst
        in
        if not (Routing.Outcome.equal outcome expected && !path = !model_path) then
          QCheck2.Test.fail_reportf "%s: route %d -> %d: %a vs model %a" case src dst
            Routing.Outcome.pp outcome Routing.Outcome.pp expected;
        (* Without [on_hop], the built-in geometries walk in C. *)
        let walked = Routing.Sparse_router.route t ~alive ~src ~dst in
        if not (Routing.Outcome.equal walked expected) then
          QCheck2.Test.fail_reportf "%s: route %d -> %d without on_hop: %a vs model %a" case
            src dst Routing.Outcome.pp walked Routing.Outcome.pp expected
      done;
      true)

(* Native code only, like the PRNG's allocation check: a sparse walk
   allocates its outcome (2 words delivered, 3 dropped) and nothing
   per hop or per candidate. *)
let test_routing_allocates_only_outcomes () =
  List.iter
    (fun g ->
      let t = build ~bits:12 ~nodes:2048 g in
      let rng = rng_of_seed 3 in
      let alive = Overlay.Failure.sample ~rng ~q:0.3 2048 in
      let pool = Overlay.Failure.survivors alive in
      let routes = 10_000 in
      let pick _ = pool.(Prng.Splitmix.int rng (Array.length pool)) in
      let srcs = Array.init routes pick and dsts = Array.init routes pick in
      let outcomes = Array.make routes (Routing.Outcome.Delivered { hops = 0 }) in
      let before = Gc.minor_words () in
      for k = 0 to routes - 1 do
        outcomes.(k) <- Routing.Sparse_router.route t ~alive ~src:srcs.(k) ~dst:dsts.(k)
      done;
      let words = Gc.minor_words () -. before in
      let needed =
        Array.fold_left
          (fun acc -> function
            | Routing.Outcome.Delivered _ -> acc + 2
            | Routing.Outcome.Dropped _ -> acc + 3)
          0 outcomes
      in
      if Sys.backend_type = Sys.Native && words > float_of_int needed then
        Alcotest.failf "%s: %.0f minor words for 10k routes, outcomes need %d"
          (Rcm.Geometry.name g) words needed)
    [ Rcm.Geometry.Ring; Rcm.Geometry.Tree; Rcm.Geometry.Xor ]

let test_e6_experiment_shape () =
  let cfg =
    { Experiments.Sparse_occupancy.default_config with
      nodes = 256; bits_list = [ 8; 11 ]; qs = [ 0.0; 0.3 ]; trials = 1; pairs = 400 }
  in
  let s = Experiments.Sparse_occupancy.run cfg Rcm.Geometry.Ring in
  (* q = 0 delivers everything regardless of occupancy. *)
  List.iter
    (fun label ->
      check_close ~msg:label 1.0 (Option.get (Helpers.value_at s ~label ~x:0.0)))
    [ "sim(d=8)"; "sim(d=11)" ];
  (* The spread between occupancies stays modest. *)
  let spread =
    let a = Helpers.column s "sim(d=8)" and b = Helpers.column s "sim(d=11)" in
    Array.fold_left Float.max 0.0 (Array.map2 (fun x y -> Float.abs (x -. y)) a b)
  in
  Alcotest.(check bool) (Printf.sprintf "spread %.3f < 0.12" spread) true (spread < 0.12)

let suite =
  [
    ("ids sorted and distinct", `Quick, test_ids_sorted_distinct);
    ("dense sampling regime", `Quick, test_dense_sampling_regime);
    ("fully populated extreme", `Quick, test_fully_populated_extreme);
    ("lower_bound / successor", `Quick, test_lower_bound_and_successor);
    ("index_of_id", `Quick, test_index_of_id);
    ("prefix ranges contain their nodes", `Quick, test_prefix_range);
    ("ring fingers are closest successors", `Quick, test_ring_fingers_are_successors);
    ("prefix contacts valid", `Quick, test_prefix_contacts_valid);
    ("symphony contacts", `Quick, test_symphony_contacts);
    ("hypercube rejected", `Quick, test_hypercube_rejected);
    ("routing delivers at q=0", `Quick, test_routing_no_failures);
    ("sparse chord hop bound", `Quick, test_routing_hop_bounds);
    sparse_delivered_paths_alive;
    ("full occupancy = dense ring", `Quick, test_full_occupancy_matches_dense_ring);
    flat_layout_matches_model;
    ("routing allocates only its outcome", `Quick, test_routing_allocates_only_outcomes);
    ("E6 experiment shape", `Slow, test_e6_experiment_shape);
    ("symphony parameters rejected", `Quick, test_symphony_parameters_rejected);
  ]
