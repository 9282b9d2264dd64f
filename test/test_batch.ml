(* Batch routing kernel versus the scalar router: outcomes, hop
   counts, stuck nodes, PRNG streams and metrics totals must be equal
   (not just close) for every geometry, failure level and domain count
   — the contract that lets the simulation layers route every rule or
   block table through the batch kernel. Also pins the packed
   Failure bitset against its bool-array ancestor. *)

(* Every registered geometry, built-ins and plugins alike — a plugin's
   batch lane (Scalar or Block) joins the differential matrix just by
   registering its descriptor. *)
let all_geometries = List.map (fun d -> d.Geom.default) (Geom.all ())

let outcome = Alcotest.testable Routing.Outcome.pp Routing.Outcome.equal

let flat_table ~seed ~bits geometry =
  Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed) ~bits geometry

(* --- packed bitset invariants -------------------------------------------- *)

(* Lengths straddling the 32-bit word boundary, including empty. *)
let bitset_lengths = [ 0; 1; 5; 31; 32; 33; 64; 100; 257 ]

let test_bitset_tail_words () =
  List.iter
    (fun n ->
      let full = Overlay.Failure.Bitset.all n in
      Alcotest.(check int) (Printf.sprintf "all %d: count" n) n
        (Helpers.alive_count full);
      Alcotest.(check (array int))
        (Printf.sprintf "all %d: members" n)
        (Array.init n Fun.id)
        (Overlay.Failure.Bitset.members full);
      let empty = Overlay.Failure.Bitset.create n in
      Alcotest.(check int) (Printf.sprintf "create %d: count" n) 0
        (Helpers.alive_count empty);
      Alcotest.(check (array int))
        (Printf.sprintf "create %d: members" n)
        [||]
        (Overlay.Failure.Bitset.members empty))
    bitset_lengths

let test_bitset_bool_array_agreement () =
  List.iter
    (fun n ->
      (* A deterministic, irregular pattern crossing word boundaries. *)
      let bools = Array.init n (fun i -> (i * 7) mod 3 <> 0 || i mod 32 = 31) in
      let mask = Helpers.mask_of_bools bools in
      Alcotest.(check int) (Printf.sprintf "n=%d: length" n) n (Overlay.Failure.length mask);
      Alcotest.(check int)
        (Printf.sprintf "n=%d: alive_count vs fold" n)
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bools)
        (Helpers.alive_count mask);
      let expected_ids =
        Array.of_list (List.filter (fun i -> bools.(i)) (List.init n Fun.id))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d: alive_ids vs filter" n)
        expected_ids (Overlay.Failure.survivors mask);
      Alcotest.(check (array bool))
        (Printf.sprintf "n=%d: to_bool_array roundtrip" n)
        bools
        (Overlay.Failure.to_bool_array mask);
      Array.iteri
        (fun i b ->
          if Overlay.Failure.get mask i <> b then
            Alcotest.failf "n=%d: get %d disagrees with source array" n i)
        bools)
    bitset_lengths

let test_bitset_set_and_bounds () =
  let mask = Overlay.Failure.none 40 in
  Overlay.Failure.set mask 0 false;
  Overlay.Failure.set mask 31 false;
  Overlay.Failure.set mask 32 false;
  Alcotest.(check int) "three cleared" 37 (Helpers.alive_count mask);
  Overlay.Failure.set mask 31 true;
  Alcotest.(check bool) "set back" true (Overlay.Failure.get mask 31);
  Alcotest.(check int) "count restored" 38 (Helpers.alive_count mask);
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Bitset.get: index 40 outside [0, 40)") (fun () ->
      ignore (Overlay.Failure.get mask 40));
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Bitset.set: index -1 outside [0, 40)") (fun () ->
      Overlay.Failure.set mask (-1) true);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitset.create: negative length") (fun () ->
      ignore (Overlay.Failure.Bitset.create (-3)));
  (* Bits above the low 32 of a word, written through [words] rather
     than [set], are neither counted nor listed. *)
  let words = Overlay.Failure.Bitset.words mask in
  words.{0} <- words.{0} lor (0xFF lsl 32);
  Alcotest.(check int) "high bits not counted" 38 (Helpers.alive_count mask);
  Alcotest.(check (array int))
    "high bits not listed"
    (Array.of_list (List.filter (Overlay.Failure.get mask) (List.init 40 Fun.id)))
    (Overlay.Failure.survivors mask)

(* The packed sample must draw exactly the bernoulli sequence the
   historical bool-array sampler drew: one draw per node, ascending.
   Every compiled variant of the C loop is checked, each called
   directly, besides the per-call pick that [sample] makes. The
   lengths cover partial and empty tail words. q = 2^-60 kills only a
   node whose draw has 53 leading zero bits; the last q is node 0's
   own draw, so node 0 lives only if the sampler compares with [<] as
   [bernoulli] does, not [<=]. *)
let sample_variants = ("picked", Overlay.Failure.sample) :: Overlay.Failure.sample_variants

(* The variants whose mask or generator state differ from the
   bernoulli loop's at [seed], [q] and [n]. *)
let sample_mismatches ~seed ~q n =
  let rng_ref = Prng.Splitmix.create ~seed in
  let reference = Array.init n (fun _ -> not (Prng.Splitmix.bernoulli rng_ref ~p:q)) in
  let alive = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reference in
  List.filter_map
    (fun (name, sample) ->
      let rng = Prng.Splitmix.create ~seed in
      let mask = sample ~rng ~q n in
      if
        Overlay.Failure.to_bool_array mask = reference
        (* no bits past the end *)
        && Helpers.alive_count mask = alive
        && Prng.Splitmix.state rng = Prng.Splitmix.state rng_ref
      then None
      else Some name)
    sample_variants

let test_sample_draw_order () =
  Alcotest.(check bool) "the default variant always runs" true
    (List.mem_assoc "default" Overlay.Failure.sample_variants);
  let first_draw = Prng.Splitmix.float (Prng.Splitmix.create ~seed:123) in
  List.iter
    (fun n ->
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "n=%d q=%h: variants off the bernoulli loop" n q)
            []
            (sample_mismatches ~seed:123 ~q n))
        [ 0.0; 0x1p-60; 0.3; 0.5; 0.9; 1.0; first_draw ])
    bitset_lengths

let prop_sample_variants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"failure sample: every variant at random q"
       QCheck.(triple small_nat (float_range 0.0 1.0) (int_range 0 300))
       (fun (seed, q, n) -> sample_mismatches ~seed ~q n = []))

(* [Failure.sample] allocates its words unfilled, so every variant
   must write the last word whole, zeros past n included. Word arrays
   of the same size are first filled with ones and freed, so the
   allocator likely hands that dirty memory to the mask. *)
let test_sample_tail_written () =
  List.iter
    (fun n ->
      List.iter
        (fun (name, sample) ->
          List.iter
            (fun q ->
              for _ = 1 to 4 do
                Bigarray.Array1.fill
                  (Bigarray.Array1.create Bigarray.int Bigarray.c_layout ((n + 31) / 32))
                  (-1)
              done;
              Gc.full_major ();
              let mask = sample ~rng:(Prng.Splitmix.create ~seed:n) ~q n in
              let survivors = ref 0 in
              for v = 0 to n - 1 do
                if Overlay.Failure.get mask v then incr survivors
              done;
              let label = Printf.sprintf "%s n=%d q=%g" name n q in
              Alcotest.(check bool)
                (label ^ ": no member at or past n")
                true
                (Array.for_all (fun v -> v < n) (Overlay.Failure.survivors mask));
              Alcotest.(check int) (label ^ ": alive_count") !survivors
                (Helpers.alive_count mask))
            [ 0.0; 0.5 ])
        sample_variants)
    [ 1; 5; 33; 100; 1000; 4097 ]

(* --- rank index ------------------------------------------------------------- *)

(* Random masks: a length with a partial tail word; all dead, one
   alive, all alive, a random density, or words that are each all
   alive, all dead, random or a single bit (long dead runs between full
   words are what makes select walk past its directory entry); and optionally
   stray bits above the low 32 of every word, written through
   [Bitset.words], which neither [members] nor the index may count. *)
let mask_of (n, kind, seed, stray) =
  let rng = Prng.Splitmix.create ~seed in
  let mask =
    match kind with
    | 0 -> Overlay.Failure.Bitset.create n
    | 1 ->
        let m = Overlay.Failure.Bitset.create n in
        if n > 0 then Overlay.Failure.Bitset.set m (Prng.Splitmix.int rng n) true;
        m
    | 2 -> Overlay.Failure.Bitset.all n
    | 3 -> Overlay.Failure.sample ~rng ~q:(Prng.Splitmix.float rng) n
    | _ ->
        let m = Overlay.Failure.Bitset.create n in
        for w = 0 to ((n + 31) / 32) - 1 do
          let style = Prng.Splitmix.int rng 4 and single = Prng.Splitmix.int rng 32 in
          for v = 32 * w to min n (32 * (w + 1)) - 1 do
            if style = 0 || (style = 2 && Helpers.coin rng) || (style = 3 && v = (32 * w) + single)
            then Overlay.Failure.Bitset.set m v true
          done
        done;
        m
  in
  (if stray then
     let words = Overlay.Failure.Bitset.words mask in
     for w = 0 to Bigarray.Array1.dim words - 1 do
       words.{w} <- words.{w} lor ((1 + Prng.Splitmix.int rng 0x3FFF_FFFF) lsl 32)
     done);
  mask

let arb_mask =
  QCheck.make
    ~print:(fun (n, kind, seed, stray) ->
      Printf.sprintf "n=%d kind=%d seed=%d stray=%b" n kind seed stray)
    QCheck.Gen.(quad (int_range 0 300) (int_range 0 4) nat bool)

(* Through [select] and every in-word select this host runs (the
   PDEP one on x86-64-v4, the search everywhere). *)
let prop_select_equals_members =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"rank: select = members" arb_mask (fun spec ->
         let mask = mask_of spec in
         let members = Overlay.Failure.Bitset.members mask in
         let rank = Overlay.Rank.create mask in
         let words = (Overlay.Failure.Bitset.length mask + 31) / 32 in
         Overlay.Rank.count rank = Array.length members
         && Overlay.Rank.memory_bytes rank <= 8 * words
         && List.for_all
              (fun (_, select) ->
                Array.for_all Fun.id (Array.mapi (fun i v -> select rank i = v) members))
              (("select", Overlay.Rank.select) :: Overlay.Rank.select_variants)))

(* At 2^20 nodes the directory, the word search and the in-word
   select run over every survivor of a mask the size the d = 20
   sweeps sample. *)
let test_select_d20 () =
  let n = 1 lsl 20 in
  List.iter
    (fun q ->
      let mask = Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:20) ~q n in
      let members = Overlay.Failure.survivors mask in
      let rank = Overlay.Rank.create mask in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g: index within the mask's N/4 bytes" q)
        true
        (Overlay.Rank.memory_bytes rank <= n / 4);
      Array.iteri
        (fun i v ->
          let id = Overlay.Rank.select rank i in
          if id <> v then Alcotest.failf "q=%g: select %d = %d, member %d" q i id v)
        members)
    [ 0.0; 0.2; 0.9 ]

let test_select_bounds () =
  let rank = Overlay.Rank.create (Overlay.Failure.none 40) in
  Alcotest.(check int) "count" 40 (Overlay.Rank.count rank);
  Alcotest.check_raises "past the last member"
    (Invalid_argument "Rank.select: index 40 outside [0, 40)") (fun () ->
      ignore (Overlay.Rank.select rank 40));
  Alcotest.check_raises "negative"
    (Invalid_argument "Rank.select: index -1 outside [0, 40)") (fun () ->
      ignore (Overlay.Rank.select rank (-1)));
  Alcotest.(check int) "empty index" 0 (Overlay.Rank.count Overlay.Rank.empty);
  (* A bit past the length, written through [words], is not a member:
     select never yields an id outside the mask. *)
  let mask = Overlay.Failure.Bitset.create 40 in
  Overlay.Failure.set mask 7 true;
  let words = Overlay.Failure.Bitset.words mask in
  words.{1} <- words.{1} lor (1 lsl 12);
  let rank = Overlay.Rank.create mask in
  Alcotest.(check int) "tail bit not counted" 1 (Overlay.Rank.count rank);
  Alcotest.(check int) "select the one member" 7 (Overlay.Rank.select rank 0)

(* --- route_many versus the scalar router --------------------------------- *)

let qs = [ 0.0; 0.3; 0.9 ]

(* Every ordered survivor pair, in a fixed order. *)
let survivor_pairs alive =
  let pool = Overlay.Failure.survivors alive in
  let pairs = ref [] in
  Array.iter
    (fun src -> Array.iter (fun dst -> if src <> dst then pairs := (src, dst) :: !pairs) pool)
    pool;
  Array.of_list (List.rev !pairs)

let test_route_many_matches_scalar () =
  List.iter
    (fun geometry ->
      let name = Rcm.Geometry.slug geometry in
      let table = flat_table ~seed:42 ~bits:6 geometry in
      List.iteri
        (fun qi q ->
          let what = Printf.sprintf "%s q=%g" name q in
          let alive =
            Overlay.Failure.sample
              ~rng:(Prng.Splitmix.create ~seed:(900 + qi))
              ~q
              (Overlay.Table.node_count table)
          in
          let pairs = survivor_pairs alive in
          let rng_batch = Prng.Splitmix.create ~seed:7 in
          let rng_scalar = Prng.Splitmix.create ~seed:7 in
          let scratch =
            Routing.Route_batch.route_many
              ~scratch:(Routing.Route_batch.create_scratch ())
              table ~rng:rng_batch ~alive pairs
          in
          let scalar_delivered = ref 0 in
          Array.iteri
            (fun k (src, dst) ->
              let expected = Routing.Router.route table ~rng:rng_scalar ~alive ~src ~dst in
              if Helpers.delivered expected then incr scalar_delivered;
              Alcotest.check outcome
                (Printf.sprintf "%s: pair %d (%d -> %d)" what k src dst)
                expected
                (Routing.Route_batch.outcome scratch k))
            pairs;
          Alcotest.(check int) (what ^ ": delivered_count") !scalar_delivered
            (Routing.Route_batch.delivered_count scratch);
          (* The batch kernel consumed exactly the scalar draws. *)
          Alcotest.(check int64) (what ^ ": rng state")
            (Prng.Splitmix.state rng_scalar) (Prng.Splitmix.state rng_batch))
        qs)
    all_geometries

(* sample_and_route interleaves pair-sampling draws with routing draws
   exactly as the scalar trial loop does (the hypercube router draws
   while routing, so the interleaving is observable). *)
let test_sample_and_route_matches_scalar () =
  List.iter
    (fun geometry ->
      let name = Rcm.Geometry.slug geometry in
      let table = flat_table ~seed:5 ~bits:7 geometry in
      List.iteri
        (fun qi q ->
          let what = Printf.sprintf "%s q=%g" name q in
          let alive =
            Overlay.Failure.sample
              ~rng:(Prng.Splitmix.create ~seed:(50 + qi))
              ~q
              (Overlay.Table.node_count table)
          in
          let pool = Overlay.Failure.survivors alive in
          if Array.length pool >= 2 then begin
            let pairs = 150 in
            let rng_batch = Prng.Splitmix.create ~seed:31 in
            let rng_scalar = Prng.Splitmix.create ~seed:31 in
            let scratch =
              Routing.Route_batch.sample_and_route
                ~scratch:(Routing.Route_batch.create_scratch ())
                table ~rng:rng_batch ~alive ~pool ~pairs
            in
            let scalar_hops_rev = ref [] in
            for k = 0 to pairs - 1 do
              let src, dst = Stats.Sampler.ordered_pair rng_scalar pool in
              let expected = Routing.Router.route table ~rng:rng_scalar ~alive ~src ~dst in
              (match expected with
              | Routing.Outcome.Delivered { hops } ->
                  scalar_hops_rev := float_of_int hops :: !scalar_hops_rev
              | Routing.Outcome.Dropped _ -> ());
              Alcotest.check outcome
                (Printf.sprintf "%s: sampled pair %d" what k)
                expected
                (Routing.Route_batch.outcome scratch k)
            done;
            Alcotest.(check (list (float 0.0)))
              (what ^ ": delivered hop list")
              (List.rev !scalar_hops_rev)
              (Routing.Route_batch.delivered_hops_rev_order scratch);
            let histogram =
              List.fold_left
                (fun counts h ->
                  let h = int_of_float h in
                  let counts =
                    Array.init (max (Array.length counts) (h + 1)) (fun i ->
                        if i < Array.length counts then counts.(i) else 0)
                  in
                  counts.(h) <- counts.(h) + 1;
                  counts)
                [||] !scalar_hops_rev
            in
            Alcotest.(check (array int)) (what ^ ": hop histogram") histogram
              (Routing.Route_batch.hop_counts scratch);
            Alcotest.(check int64) (what ^ ": rng state")
              (Prng.Splitmix.state rng_scalar) (Prng.Splitmix.state rng_batch)
          end)
        qs)
    all_geometries

(* A custom family with no registered lane, so the batch engine drives
   its router through the Scalar lane. Its table is the Chord finger
   table and its router draws while it routes: each hop goes to a
   uniformly drawn alive finger that does not overshoot the
   destination, so pair-sampling and forwarding draws interleave. *)
let scalar_lane_geometry =
  lazy
    (let family = "test-scalar-lane" in
     Rcm.Geometry.register_family
       {
         Rcm.Geometry.family_name = family;
         aliases = [];
         family_system = "test";
         summary = "Chord fingers with a randomized greedy router (Scalar lane test)";
         defaults = [];
         validate = (fun _ -> Ok ());
         check_bits = (fun _ ~bits:_ -> Ok ());
       };
     Overlay.Table.register_custom_builder ~family (fun ~space ~rng:_ _ ->
         let size = Idspace.Space.size space in
         (Idspace.Space.bits space, fun v i -> (v + (1 lsl i)) mod size));
     Routing.Router.register_custom ~family
       (fun ?(on_hop = fun _ -> ()) table ~rng ~alive ~src ~dst ->
         let size = Overlay.Table.node_count table in
         let gap v = (dst - v + size) mod size in
         let rec step cur hops =
           if cur = dst then Routing.Outcome.Delivered { hops }
           else
             let closer =
               List.filter
                 (fun v -> Overlay.Failure.get alive v && gap v < gap cur)
                 (Array.to_list (Overlay.Table.neighbors table cur))
             in
             match closer with
             | [] -> Routing.Outcome.Dropped { hops; stuck_at = cur }
             | _ ->
                 let next = List.nth closer (Prng.Splitmix.int rng (List.length closer)) in
                 on_hop next;
                 step next (hops + 1)
         in
         step src 0);
     Result.get_ok (Rcm.Geometry.custom ~family []))

(* Without a pool, sample_and_route draws survivor indexes and maps
   them through a rank index of the mask, built there or handed in;
   handed the survivor list as a pool, it draws the same indexes and
   reads them from the list. All three must route the same pairs in
   the same order: the same outcome per pair, the same per-node
   loadmap counts (termination is counted at each delivered pair's
   destination) and the same generator state after the batch, on
   every registered geometry and on a custom family's Scalar lane. *)
let test_sample_and_route_rank_equals_pool () =
  List.iter
    (fun geometry ->
      let name = Rcm.Geometry.slug geometry in
      List.iter
        (fun bits ->
          let table = flat_table ~seed:9 ~bits geometry in
          let nodes = Overlay.Table.node_count table in
          List.iteri
            (fun qi q ->
              let alive =
                Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:(60 + qi)) ~q nodes
              in
              let pool = Overlay.Failure.survivors alive in
              let pairs = 200 in
              let run sample =
                let rng = Prng.Splitmix.create ~seed:41 in
                let lm = Obs.Loadmap.create ~nodes in
                let s =
                  Obs.Loadmap.with_sink lm (fun () ->
                      sample ~scratch:(Routing.Route_batch.create_scratch ()) ~rng)
                in
                ( Array.init pairs (Routing.Route_batch.outcome s),
                  lm,
                  Prng.Splitmix.state rng )
              in
              if Array.length pool >= 2 then begin
                let from_pool, lm_pool, state_pool =
                  run (fun ~scratch ~rng ->
                      Routing.Route_batch.sample_and_route ~scratch table ~rng ~alive ~pool
                        ~pairs)
                in
                List.iter
                  (fun (source, sample) ->
                    let what = Printf.sprintf "%s bits=%d q=%g %s" name bits q source in
                    let outcomes, lm, state = run sample in
                    Array.iteri
                      (fun k e ->
                        Alcotest.check outcome (Printf.sprintf "%s: pair %d" what k) e
                          outcomes.(k))
                      from_pool;
                    Alcotest.(check bool) (what ^ ": loadmap counts") true
                      (Helpers.loadmap_equal lm_pool lm);
                    Alcotest.(check int64) (what ^ ": rng state") state_pool state)
                  [
                    ( "index built",
                      fun ~scratch ~rng ->
                        Routing.Route_batch.sample_and_route ~scratch table ~rng ~alive ~pairs );
                    ( "index given",
                      fun ~scratch ~rng ->
                        Routing.Route_batch.sample_and_route ~scratch
                          ~survivors:(Overlay.Rank.create alive) table ~rng ~alive ~pairs );
                  ]
              end)
            [ 0.0; 0.3; 0.9 ])
        [ 6; 12 ])
    (all_geometries @ [ Lazy.force scalar_lane_geometry ])

(* Property: random (bits, seed) instances agree pair-for-pair across
   the batch and scalar paths on the rng-free geometries. *)
let prop_batch_scalar_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"batch/scalar agreement (random instances)"
       QCheck.(pair (int_range 3 7) small_nat)
       (fun (bits, seed) ->
         List.for_all
           (fun geometry ->
             let table = flat_table ~seed ~bits geometry in
             let alive =
               Overlay.Failure.sample
                 ~rng:(Prng.Splitmix.create ~seed:(seed + 1))
                 ~q:0.25
                 (Overlay.Table.node_count table)
             in
             let pairs = survivor_pairs alive in
             let rng = Prng.Splitmix.create ~seed in
             let scratch =
               Routing.Route_batch.route_many
                 ~scratch:(Routing.Route_batch.create_scratch ())
                 table ~rng ~alive pairs
             in
             let rng_s = Prng.Splitmix.create ~seed in
             Array.for_all
                  (fun k ->
                    let src, dst = pairs.(k) in
                    Routing.Outcome.equal
                      (Routing.Router.route table ~rng:rng_s ~alive ~src ~dst)
                      (Routing.Route_batch.outcome scratch k))
                  (Array.init (Array.length pairs) Fun.id))
           [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring ]))

(* The kernel variant every CPU runs: the portable lanes and draw. *)
let portable = List.assoc "default" Routing.Route_batch.variants

(* Property: a rule table, whose entries the lanes compute, routes
   exactly like the same entries stored as a block (its rows, wrapped
   and flattened), which the portable lanes load: outcomes (hops and
   stuck nodes), loadmap traversal and termination counters and the
   generator state after the batch (the hypercube lane draws while it
   routes), through both entry points. The rule table runs through
   every kernel variant, so on an x86-64-v4 host the AVX-512 tree, xor
   and ring lanes and the PDEP draw meet the portable block lanes and
   draw. Bits 1 is a two-node table.
   Symphony's layout (computed successors, a shortcut column) routes
   on its own driver, on an x86-64-v4 host through its AVX-512 lane
   too, and its block on the portable ring lane, which is the
   reference here: k_n in 0..3 and k_s in 1..4, and (2, 31), which has
   more candidates than the ring lane's 32-slot key scratch holds; at
   q up to 0.6 the lane's hop often passes over dead candidates before
   it finds the best alive one. A Symphony's bits grow until its degree
   is below the node count. *)
let prop_rule_block_agreement =
  let symphony =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k_n k_s -> Rcm.Geometry.Symphony { k_n; k_s }) (int_range 0 3) (int_range 1 4));
          (1, return (Rcm.Geometry.Symphony { k_n = 2; k_s = 31 }));
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"computed lanes = loaded lanes"
       QCheck.(
         quad small_nat (int_range 1 16) (float_range 0.0 0.6)
           (make
              ~print:(Fmt.str "%a" Rcm.Geometry.pp)
              Gen.(
                frequency
                  [
                    ( 4,
                      oneofl
                        [
                          Rcm.Geometry.Tree;
                          Rcm.Geometry.Hypercube;
                          Rcm.Geometry.Xor;
                          Rcm.Geometry.Ring;
                        ] );
                    (1, symphony);
                  ])))
       (fun (seed, bits, q, geometry) ->
         let rec fit bits =
           if Rcm.Geometry.check_size ~bits geometry = Ok () then bits else fit (bits + 1)
         in
         let bits = fit bits in
         let rule = flat_table ~seed ~bits geometry in
         let nodes = Overlay.Table.node_count rule in
         let block =
           Overlay.Table.flatten
             (Overlay.Table.of_neighbors ~bits geometry
                (Array.init nodes (Overlay.Table.neighbors rule)))
         in
         let alive =
           Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:(seed + 1)) ~q nodes
         in
         let pool = Overlay.Failure.survivors alive in
         let pairs = 300 in
         let given =
           let rng = Prng.Splitmix.create ~seed:(seed + 2) in
           if Array.length pool < 2 then [||]
           else Array.init pairs (fun _ -> Stats.Sampler.ordered_pair rng pool)
         in
         let run batch table =
           let lm = Obs.Loadmap.create ~nodes in
           let rng = Prng.Splitmix.create ~seed:(seed + 3) in
           let s = Obs.Loadmap.with_sink lm (fun () -> batch table ~rng) in
           ( Array.init (Array.length given) (Routing.Route_batch.outcome s),
             lm,
             Prng.Splitmix.state rng )
         in
         let agree batch =
           let outcomes_b, lm_b, state_b = run (batch portable) block in
           List.for_all
             (fun (_, variant) ->
               let outcomes_r, lm_r, state_r = run (batch variant) rule in
               Array.for_all2 Routing.Outcome.equal outcomes_r outcomes_b
               && Helpers.loadmap_equal lm_r lm_b && state_r = state_b)
             Routing.Route_batch.variants
         in
         (match (Overlay.Table.layout rule, Overlay.Table.layout block) with
         | Some (Overlay.Table.Rule _ | Overlay.Table.Shortcuts _), Some (Overlay.Table.Block _) ->
             true
         | _ -> false)
         && agree (fun (v : Routing.Route_batch.variant) table ~rng ->
                v.route_many table ~rng ~alive given)
         && (Array.length pool < 2
            || agree (fun (v : Routing.Route_batch.variant) table ~rng ->
                   v.sample_and_route table ~rng ~alive ~pool ~pairs)
            && agree (fun (v : Routing.Route_batch.variant) table ~rng ->
                   v.sample_and_route table ~rng ~alive ~pairs))))

(* --- kernel variants ------------------------------------------------------- *)

(* Every kernel variant this host runs (on x86-64-v4 the AVX-512 rule
   and Symphony lanes and the PDEP draw, and everywhere the portable
   code) against the scalar router, at the edges of the lanes: tree,
   xor and ring at bits 1-3 and at random bits up to 16; Symphony as
   (k_n, k_s) = (0, 1) at bits 1, (1, 1) at every other bits, and
   (2, 4) and (2, 31) wherever their degree is below the node count;
   q from none dead to nearly all, and pair counts around one 8-lane
   vector and the 64 lanes of a block (0, 1, 7, 8, 9, 63, 64, 65) and
   past them (300), where lanes refill many times and finish out of
   pair order. [route_many]'s pairs include
   src = dst, delivered in 0 hops, and [sample_and_route] draws through
   the rank index. Each run must give the scalar outcomes (hops and
   stuck nodes), loadmap counts and generator state, so the variants
   also agree with each other. *)
let test_variants_at_edges () =
  Alcotest.(check bool) "the default variant always runs" true
    (List.mem_assoc "default" Routing.Route_batch.variants);
  let draw_bits = Prng.Splitmix.create ~seed:16 in
  let bits_list = [ 1; 2; 3 ] @ List.init 4 (fun _ -> 4 + Prng.Splitmix.int draw_bits 13) in
  let check_run what (outcomes, lm, state) (outcomes', lm', state') =
    Alcotest.(check (array outcome)) (what ^ ": outcomes") outcomes outcomes';
    Alcotest.(check bool) (what ^ ": loadmap") true (Helpers.loadmap_equal lm lm');
    Alcotest.(check int64) (what ^ ": rng state") state state'
  in
  let symphony_shapes bits =
    List.filter
      (fun g -> Rcm.Geometry.check_size ~bits g = Ok ())
      (List.map
         (fun (k_n, k_s) -> Rcm.Geometry.Symphony { k_n; k_s })
         (if bits = 1 then [ (0, 1) ] else [ (1, 1); (2, 4); (2, 31) ]))
  in
  let cases =
    List.concat_map
      (fun geometry -> List.map (fun bits -> (geometry, bits)) bits_list)
      [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring ]
    @ List.concat_map
        (fun bits -> List.map (fun geometry -> (geometry, bits)) (symphony_shapes bits))
        bits_list
  in
  List.iter
    (fun (geometry, bits) ->
      let table = flat_table ~seed:bits ~bits geometry in
      let nodes = Overlay.Table.node_count table in
      List.iteri
        (fun qi q ->
          let alive =
            Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:(bits + qi)) ~q nodes
          in
          let pool = Overlay.Failure.survivors alive in
          let survivors = Array.length pool in
          let run n route =
            let lm = Obs.Loadmap.create ~nodes in
            let rng = Prng.Splitmix.create ~seed:n in
            let outcomes = Obs.Loadmap.with_sink lm (fun () -> route ~rng) in
            (outcomes, lm, Prng.Splitmix.state rng)
          in
          List.iter
            (fun n ->
              let what =
                Fmt.str "%a bits=%d q=%g n=%d" Rcm.Geometry.pp geometry bits q n
              in
              let pick = Prng.Splitmix.create ~seed:(n + bits) in
              let given =
                if survivors = 0 then [||]
                else
                  Array.init n (fun k ->
                      let src = pool.(Prng.Splitmix.int pick survivors) in
                      (src, if k mod 5 = 0 then src else pool.(Prng.Splitmix.int pick survivors)))
              in
              let scalar_given =
                run n (fun ~rng ->
                    Array.map
                      (fun (src, dst) -> Routing.Router.route table ~rng ~alive ~src ~dst)
                      given)
              in
              let scalar_drawn =
                lazy
                  (run n (fun ~rng ->
                       Array.init n (fun _ ->
                           let src, dst = Stats.Sampler.ordered_pair rng pool in
                           Routing.Router.route table ~rng ~alive ~src ~dst)))
              in
              List.iter
                (fun (name, (v : Routing.Route_batch.variant)) ->
                  check_run
                    (Printf.sprintf "%s %s route_many" what name)
                    scalar_given
                    (run n (fun ~rng ->
                         let s = v.route_many table ~rng ~alive given in
                         Array.init (Array.length given) (Routing.Route_batch.outcome s)));
                  if survivors >= 2 then
                    check_run
                      (Printf.sprintf "%s %s sample_and_route" what name)
                      (Lazy.force scalar_drawn)
                      (run n (fun ~rng ->
                           let s = v.sample_and_route table ~rng ~alive ~pairs:n in
                           Array.init n (Routing.Route_batch.outcome s))))
                Routing.Route_batch.variants)
            [ 0; 1; 7; 8; 9; 63; 64; 65; 300 ])
        [ 0.0; 0.5; 0.95 ])
    cases

(* --- the hypercube lane ------------------------------------------------------ *)

(* The C lane draws [Splitmix.int rng seen] per alive candidate. Its
   rejection branch fires about once in 2^62 draws, so this pins it on
   purpose: two steps before the state whose next output is all ones
   (max62 in the top 62 bits), the third draw — the first hop's
   [seen = 3] draw at q = 0 — is rejected and drawn again. *)
let test_hypercube_rejection () =
  let bits = 6 in
  let table = flat_table ~seed:1 ~bits Rcm.Geometry.Hypercube in
  let alive = Overlay.Failure.none (Overlay.Table.node_count table) in
  let src = 0 and dst = (1 lsl bits) - 1 in
  let start = Int64.sub 0x31628AF67B2131ABL (Int64.mul 2L 0x9E3779B97F4A7C15L) in
  let rng_batch = Prng.Splitmix.of_int64 start in
  let rng_scalar = Prng.Splitmix.of_int64 start in
  let scratch =
    Routing.Route_batch.route_many
      ~scratch:(Routing.Route_batch.create_scratch ())
      table ~rng:rng_batch ~alive
      [| (src, dst) |]
  in
  Alcotest.check outcome "outcome"
    (Routing.Hypercube_router.route table ~rng:rng_scalar ~alive ~src ~dst)
    (Routing.Route_batch.outcome scratch 0);
  Alcotest.(check int64) "rng state" (Prng.Splitmix.state rng_scalar)
    (Prng.Splitmix.state rng_batch);
  (* Hops at distance 6, 5, ..., 1 draw 21 times, plus the redraw. *)
  let drawn = Prng.Splitmix.of_int64 start in
  Prng.Splitmix.advance drawn 22;
  Alcotest.(check int64) "21 reservoir draws and one redraw" (Prng.Splitmix.state drawn)
    (Prng.Splitmix.state rng_batch)

(* Both entry points at bits 14 against their scalar loops, with a loadmap
   sink on each side: outcomes, the final rng state and every per-node
   count must be equal. *)
let test_hypercube_bits14 () =
  let table = flat_table ~seed:14 ~bits:14 Rcm.Geometry.Hypercube in
  let nodes = Overlay.Table.node_count table in
  let pairs = 2_000 in
  List.iteri
    (fun qi q ->
      let alive =
        Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:(140 + qi)) ~q nodes
      in
      let pool = Overlay.Failure.survivors alive in
      let given =
        let rng = Prng.Splitmix.create ~seed:(240 + qi) in
        Array.init pairs (fun _ -> Stats.Sampler.ordered_pair rng pool)
      in
      (* [next_pair rng k] is the scalar loop's pair k. *)
      List.iter
        (fun (entry, batch, next_pair) ->
          let what = Printf.sprintf "%s q=%g" entry q in
          let rng_batch = Prng.Splitmix.create ~seed:77 in
          let rng_scalar = Prng.Splitmix.create ~seed:77 in
          let lm_batch = Obs.Loadmap.create ~nodes in
          let lm_scalar = Obs.Loadmap.create ~nodes in
          let scratch = Obs.Loadmap.with_sink lm_batch (fun () -> batch rng_batch) in
          let expected =
            Obs.Loadmap.with_sink lm_scalar (fun () ->
                Array.init pairs (fun k ->
                    let src, dst = next_pair rng_scalar k in
                    Routing.Router.route table ~rng:rng_scalar ~alive ~src ~dst))
          in
          Array.iteri
            (fun k e ->
              Alcotest.check outcome
                (Printf.sprintf "%s: pair %d" what k)
                e
                (Routing.Route_batch.outcome scratch k))
            expected;
          Alcotest.(check int64) (what ^ ": rng state") (Prng.Splitmix.state rng_scalar)
            (Prng.Splitmix.state rng_batch);
          Alcotest.(check int)
            (what ^ ": one termination per pair")
            pairs
            (Helpers.loadmap_total lm_batch Obs.Loadmap.Route_termination);
          Alcotest.(check bool) (what ^ ": per-node loadmap counts") true
            (Helpers.loadmap_equal lm_scalar lm_batch))
        [
          ( "route_many",
            (fun rng ->
              Routing.Route_batch.route_many
                ~scratch:(Routing.Route_batch.create_scratch ())
                table ~rng ~alive given),
            fun _ k -> given.(k) );
          ( "sample_and_route",
            (fun rng ->
              Routing.Route_batch.sample_and_route
                ~scratch:(Routing.Route_batch.create_scratch ())
                table ~rng ~alive ~pool ~pairs),
            fun rng _ -> Stats.Sampler.ordered_pair rng pool );
        ])
    [ 0.0; 0.3; 0.6 ]

(* --- scratch lifecycle ---------------------------------------------------- *)

let test_scratch_reuse_and_raw_views () =
  let table = flat_table ~seed:11 ~bits:6 Rcm.Geometry.Ring in
  let alive =
    Overlay.Failure.sample
      ~rng:(Prng.Splitmix.create ~seed:2)
      ~q:0.3
      (Overlay.Table.node_count table)
  in
  let scratch = Routing.Route_batch.create_scratch () in
  let pairs = survivor_pairs alive in
  let rng = Prng.Splitmix.create ~seed:1 in
  let s1 = Routing.Route_batch.route_many ~scratch table ~rng ~alive pairs in
  Alcotest.(check bool) "same scratch returned" true (s1 == scratch);
  let outcomes = Array.init (Array.length pairs) (Routing.Route_batch.outcome scratch) in
  Alcotest.(check int) "delivered count"
    (List.length (List.filter Helpers.delivered (Array.to_list outcomes)))
    (Routing.Route_batch.delivered_count scratch);
  (* Shrinking reuse: a smaller second batch on the same scratch
     reports the new size, not stale results. *)
  let small = [| pairs.(0); pairs.(1); pairs.(2) |] in
  let s2 = Routing.Route_batch.route_many ~scratch table ~rng ~alive small in
  Alcotest.(check bool) "reused scratch resized" true
    (Routing.Route_batch.outcome s2 2 = Routing.Route_batch.outcome s2 2);
  Alcotest.check_raises "index past batch"
    (Invalid_argument "Route_batch.outcome: index 3 outside [0, 3)") (fun () ->
      ignore (Routing.Route_batch.outcome s2 3))

let test_validation_errors () =
  let flat = flat_table ~seed:1 ~bits:5 Rcm.Geometry.Ring in
  let rows =
    Overlay.Table.of_neighbors ~bits:5 Rcm.Geometry.Ring
      (Array.init (Overlay.Table.node_count flat) (Overlay.Table.neighbors flat))
  in
  let alive = Overlay.Failure.none (Overlay.Table.node_count flat) in
  let rng = Prng.Splitmix.create ~seed:1 in
  Alcotest.check_raises "row table rejected"
    (Invalid_argument "Route_batch.route_many: table holds per-node rows (flatten it first)")
    (fun () ->
      ignore (Routing.Route_batch.route_many rows ~rng ~alive [| (0, 1) |]));
  Alcotest.check_raises "mask length mismatch"
    (Invalid_argument "Route_batch.route_many: alive mask size mismatch") (fun () ->
      ignore
        (Routing.Route_batch.route_many flat ~rng ~alive:(Overlay.Failure.none 7)
           [| (0, 1) |]));
  Alcotest.check_raises "pool smaller than 2"
    (Invalid_argument "Route_batch.sample_and_route: pool smaller than 2") (fun () ->
      ignore
        (Routing.Route_batch.sample_and_route flat ~rng ~alive ~pool:[| 3 |] ~pairs:10));
  Alcotest.check_raises "negative pair count"
    (Invalid_argument "Route_batch.sample_and_route: negative pair count") (fun () ->
      ignore
        (Routing.Route_batch.sample_and_route flat ~rng ~alive ~pool:[| 1; 2 |]
           ~pairs:(-1)));
  Alcotest.check_raises "fewer than two survivors"
    (Invalid_argument "Route_batch.sample_and_route: fewer than two survivors") (fun () ->
      let one = Overlay.Failure.Bitset.create (Overlay.Table.node_count flat) in
      Overlay.Failure.set one 3 true;
      ignore (Routing.Route_batch.sample_and_route flat ~rng ~alive:one ~pairs:10));
  Alcotest.check_raises "survivors of another mask"
    (Invalid_argument "Route_batch.sample_and_route: survivors index another mask") (fun () ->
      ignore
        (Routing.Route_batch.sample_and_route flat ~rng ~alive
           ~survivors:(Overlay.Rank.create (Helpers.mask_of_bools (Overlay.Failure.to_bool_array alive)))
           ~pairs:10));
  Alcotest.check_raises "pool and survivors"
    (Invalid_argument "Route_batch.sample_and_route: both a pool and survivors given")
    (fun () ->
      ignore
        (Routing.Route_batch.sample_and_route flat ~rng ~alive ~pool:[| 1; 2 |]
           ~survivors:(Overlay.Rank.create alive) ~pairs:10));
  match Routing.Route_batch.route_many flat ~rng ~alive [| (0, 99) |] with
  | _ -> Alcotest.fail "pair outside the id space accepted"
  | exception Invalid_argument _ -> ()

(* A two-member pool makes the bad id an endpoint of the first pair.
   Every lane must reject it before a kernel indexes a row, the mask or
   a loadmap slice with it, with and without a sink installed, and
   leave the generator just past the draw that picked it. *)
let test_pool_ids_checked () =
  let bits = 10 in
  List.iter
    (fun geometry ->
      let flat = flat_table ~seed:3 ~bits geometry in
      let alive = Overlay.Failure.none (Overlay.Table.node_count flat) in
      List.iter
        (fun bad ->
          let pool = [| 3; bad |] in
          let rng = ref (Prng.Splitmix.create ~seed:1) in
          let route () =
            rng := Prng.Splitmix.create ~seed:1;
            Routing.Route_batch.sample_and_route flat ~rng:!rng ~alive ~pool ~pairs:4
          in
          let expected =
            let g = Prng.Splitmix.create ~seed:1 in
            let i = Prng.Splitmix.int g 2 in
            if pool.(i) <> bad then
              while Prng.Splitmix.int g 2 = i do
                ()
              done;
            Prng.Splitmix.state g
          in
          let sink = Obs.Loadmap.create ~nodes:(Overlay.Table.node_count flat) in
          List.iter
            (fun (label, run) ->
              match run () with
              | _ ->
                  Alcotest.failf "%s: pool id %d accepted (%s)" (Rcm.Geometry.slug geometry)
                    bad label
              | exception Invalid_argument _ ->
                  Alcotest.(check int64)
                    (Printf.sprintf "%s: rng state after pool id %d (%s)"
                       (Rcm.Geometry.slug geometry) bad label)
                    expected (Prng.Splitmix.state !rng))
            [ ("no sink", route); ("sink", fun () -> Obs.Loadmap.with_sink sink route) ])
        [ 1 lsl 24; -1 ])
    all_geometries

(* --- metrics totals -------------------------------------------------------- *)

(* The one-flush-per-batch metrics path must land on exactly the
   counters and histogram stats the per-route scalar path produces —
   same counts, bit-equal sums (integer-valued observations). *)
let routing_metrics snapshot =
  let is_routing name = String.length name > 8 && String.sub name 0 8 = "routing/" in
  ( List.filter (fun (name, _) -> is_routing name) snapshot.Obs.Metrics.counters,
    List.filter (fun (name, _) -> is_routing name) snapshot.Obs.Metrics.histograms )

let check_hist_equal ~what (a : Obs.Metrics.hist_summary) (b : Obs.Metrics.hist_summary) =
  Alcotest.(check int) (what ^ ": count") a.Obs.Metrics.count b.Obs.Metrics.count;
  List.iter
    (fun (field, f) ->
      Alcotest.(check int64)
        (Printf.sprintf "%s: %s bits" what field)
        (Int64.bits_of_float (f a)) (Int64.bits_of_float (f b)))
    [
      ("sum", fun h -> h.Obs.Metrics.sum);
      ("min", fun h -> h.Obs.Metrics.min);
      ("max", fun h -> h.Obs.Metrics.max);
      ("mean", fun h -> h.Obs.Metrics.mean);
      ("p50", fun h -> h.Obs.Metrics.p50);
      ("p90", fun h -> h.Obs.Metrics.p90);
      ("p99", fun h -> h.Obs.Metrics.p99);
    ]

let test_metrics_totals_equal () =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled;
      Routing.Route_batch.set_enabled true)
    (fun () ->
      Obs.Metrics.set_enabled true;
      let snapshot_of ~batch geometry =
        Routing.Route_batch.set_enabled batch;
        Obs.Metrics.reset ();
        let cfg =
          Sim.Estimate.config ~trials:2 ~pairs_per_trial:150 ~seed:19 ~bits:6 ~q:0.3
            geometry
        in
        ignore (Sim.Estimate.run cfg);
        routing_metrics (Obs.Metrics.snapshot ())
      in
      List.iter
        (fun geometry ->
          let name = Rcm.Geometry.slug geometry in
          let batch_counters, batch_hists = snapshot_of ~batch:true geometry in
          let scalar_counters, scalar_hists = snapshot_of ~batch:false geometry in
          Alcotest.(check (list (pair string int)))
            (name ^ ": routing counters")
            scalar_counters batch_counters;
          Alcotest.(check bool)
            (name ^ ": counters present") true
            (batch_counters <> []);
          Alcotest.(check (list string))
            (name ^ ": histogram names")
            (List.map fst scalar_hists) (List.map fst batch_hists);
          List.iter2
            (fun (hname, a) (_, b) ->
              check_hist_equal ~what:(name ^ ": " ^ hname) a b)
            scalar_hists batch_hists)
        all_geometries)

(* --- CLI byte-identity with --no-batch ------------------------------------ *)

let binary = Filename.concat (Filename.concat ".." "bin") "dhtlab.exe"

let run_stdout args =
  let command = Filename.quote_command binary args in
  let ic = Unix.open_process_in command in
  let buffer = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buffer ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "dhtlab %s exited with %d" (String.concat " " args) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "dhtlab %s killed by signal %d" (String.concat " " args) n);
  Buffer.contents buffer

(* The reference is the batch kernel (the default); disabling it,
   alone or with 8 domains, must not move a byte of output. *)
let test_cli_no_batch_byte_identical () =
  List.iter
    (fun name ->
      let base =
        [ "simulate"; "-g"; name; "-d"; "7"; "-q"; "0.25"; "--trials"; "2"; "--pairs"; "60" ]
      in
      let reference = run_stdout (base @ [ "-j"; "1" ]) in
      Alcotest.(check bool) (name ^ ": non-empty") true (String.length reference > 0);
      List.iter
        (fun extra ->
          let got = run_stdout (base @ extra) in
          if not (String.equal reference got) then
            Alcotest.failf "simulate %s: %s diverges from batch -j 1" name
              (String.concat " " extra))
        [
          [ "-j"; "1"; "--no-batch" ];
          [ "-j"; "8"; "--no-batch" ];
          [ "-j"; "8" ];
        ])
    [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]

let suite =
  [
    Alcotest.test_case "bitset: tail words" `Quick test_bitset_tail_words;
    Alcotest.test_case "bitset: bool-array agreement" `Quick test_bitset_bool_array_agreement;
    Alcotest.test_case "bitset: set/bounds" `Quick test_bitset_set_and_bounds;
    Alcotest.test_case "failure sample: draw order" `Quick test_sample_draw_order;
    Alcotest.test_case "route_many = scalar (registry x q)" `Quick
      test_route_many_matches_scalar;
    Alcotest.test_case "sample_and_route = scalar trial loop" `Quick
      test_sample_and_route_matches_scalar;
    prop_batch_scalar_agreement;
    prop_rule_block_agreement;
    Alcotest.test_case "hypercube lane: rejected draw" `Quick test_hypercube_rejection;
    Alcotest.test_case "hypercube lane: bits 14, both entry points" `Quick test_hypercube_bits14;
    Alcotest.test_case "scratch reuse and raw views" `Quick test_scratch_reuse_and_raw_views;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "pool ids checked on every lane" `Quick test_pool_ids_checked;
    Alcotest.test_case "metrics totals: batch = scalar" `Quick test_metrics_totals_equal;
    Alcotest.test_case "CLI --no-batch byte-identical" `Slow test_cli_no_batch_byte_identical;
    (* Appended so that no earlier case's suite index moves. *)
    prop_sample_variants;
    prop_select_equals_members;
    Alcotest.test_case "rank: select at 2^20" `Quick test_select_d20;
    Alcotest.test_case "rank: bounds" `Quick test_select_bounds;
    Alcotest.test_case "sample_and_route: rank index = pool" `Quick
      test_sample_and_route_rank_equals_pool;
    Alcotest.test_case "failure mask tail: no member past n" `Quick test_sample_tail_written;
    Alcotest.test_case "kernel variants = scalar at the lane edges" `Quick test_variants_at_edges;
  ]
