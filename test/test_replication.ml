open Helpers

(* --- Analysis ------------------------------------------------------------- *)

let test_capacity () =
  (* The replicated tree's Q(m) = q^capacity: read the capacity back at
     q = 1/2. *)
  let capacity ~m = Float.to_int (Float.round (-.Float.log2 (Rcm.Replication.tree_phase_failure ~q:0.5 ~k:8 ~m))) in
  Alcotest.(check int) "m=1" 1 (capacity ~m:1);
  Alcotest.(check int) "m=2" 2 (capacity ~m:2);
  Alcotest.(check int) "m=4 capped by k" 8 (capacity ~m:5);
  Alcotest.(check int) "huge m" 8 (capacity ~m:60)

let test_effective_successors () =
  (* Only successor entries that do not duplicate a finger lower Q. *)
  let q r = Rcm.Replication.ring_phase_failure ~q:0.3 ~successors:r ~m:4 in
  (* r=1 and r=2 only duplicate fingers (distances 1 and 1,2). *)
  check_close ~msg:"r=1" (q 0) (q 1);
  check_close ~msg:"r=2" (q 0) (q 2);
  (* r=3 adds distance 3. *)
  Alcotest.(check bool) "r=3" true (q 3 < q 2);
  (* r=8: distances 3,5,6,7 are new (1,2,4,8 are fingers), as at r=7. *)
  check_close ~msg:"r=8" (q 7) (q 8);
  Alcotest.(check bool) "r=7" true (q 7 < q 6)

let test_reduces_to_base_at_k1 () =
  List.iter
    (fun q ->
      List.iter
        (fun m ->
          check_close ~msg:"tree" (Rcm.Tree.spec.Rcm.Spec.phase_failure ~d:64 ~q ~m)
            (Rcm.Replication.tree_phase_failure ~q ~k:1 ~m);
          check_close ~msg:"xor"
            (Rcm.Xor_routing.phase_failure ~q ~m)
            (Rcm.Replication.xor_phase_failure ~q ~k:1 ~m);
          check_close ~msg:"ring" (Rcm.Ring.spec.Rcm.Spec.phase_failure ~d:64 ~q ~m)
            (Rcm.Replication.ring_phase_failure ~q ~successors:0 ~m))
        [ 1; 2; 5; 10 ])
    [ 0.1; 0.3; 0.6 ]

let test_destination_still_required () =
  (* Q(1) = q for any amount of replication: the destination itself has
     no replicas. *)
  List.iter
    (fun k ->
      check_close ~msg:"tree" 0.4 (Rcm.Replication.tree_phase_failure ~q:0.4 ~k ~m:1);
      check_close ~msg:"xor" 0.4 (Rcm.Replication.xor_phase_failure ~q:0.4 ~k ~m:1);
      check_close ~msg:"ring" 0.4
        (Rcm.Replication.ring_phase_failure ~q:0.4 ~successors:(k * 3) ~m:1))
    [ 1; 2; 8; 64 ]

let test_tree_replication_closed_form () =
  (* Q(m) = q^min(k, 2^(m-1)) exactly. *)
  check_close (0.3 ** 4.0) (Rcm.Replication.tree_phase_failure ~q:0.3 ~k:4 ~m:4);
  check_close (0.3 ** 2.0) (Rcm.Replication.tree_phase_failure ~q:0.3 ~k:4 ~m:2)

let replication_never_hurts =
  qcheck "Q decreases as k grows"
    QCheck2.Gen.(triple prob_gen (int_range 1 16) (int_range 1 16))
    (fun (q, k, m) ->
      Rcm.Replication.xor_phase_failure ~q ~k:(k + 1) ~m
      <= Rcm.Replication.xor_phase_failure ~q ~k ~m +. 1e-12
      && Rcm.Replication.tree_phase_failure ~q ~k:(k + 1) ~m
         <= Rcm.Replication.tree_phase_failure ~q ~k ~m +. 1e-12)

let successors_never_hurt =
  qcheck "ring Q decreases as the successor list grows"
    QCheck2.Gen.(triple prob_gen (int_range 0 32) (int_range 1 16))
    (fun (q, r, m) ->
      Rcm.Replication.ring_phase_failure ~q ~successors:(r + 1) ~m
      <= Rcm.Replication.ring_phase_failure ~q ~successors:r ~m +. 1e-12)

let replicated_q_is_probability =
  qcheck "replicated Q values stay probabilities"
    QCheck2.Gen.(triple prob_gen (int_range 1 32) (int_range 1 40))
    (fun (q, k, m) ->
      Numerics.Prob.is_valid (Rcm.Replication.xor_phase_failure ~q ~k ~m)
      && Numerics.Prob.is_valid (Rcm.Replication.tree_phase_failure ~q ~k ~m)
      && Numerics.Prob.is_valid (Rcm.Replication.ring_phase_failure ~q ~successors:k ~m))

(* --- K-bucket overlays ------------------------------------------------------- *)

let bits = 8

let build_buckets ?(k = 3) ?(seed = 41) () =
  Overlay.Kbucket.build ~rng:(rng_of_seed seed) ~bits ~k ()

let test_bucket_sizes () =
  (* A k far beyond every candidate set fills each bucket with all of
     its candidates, at no more memory than they need. *)
  List.iter
    (fun (k, t) ->
      for v = 0 to 255 do
        for level = 1 to bits do
          let expected = min k (1 lsl (bits - level)) in
          Alcotest.(check int)
            (Printf.sprintf "k=%d: bucket %d of %d" k level v)
            expected
            (Array.length (Overlay.Kbucket.bucket t v level))
        done
      done)
    [
      (3, build_buckets ());
      ( 1_000_000,
        Overlay.Kbucket.build ~rng:(rng_of_seed 41) ~cache_k:1_000_000 ~bits ~k:1_000_000 () );
    ]

let test_bucket_contacts_distinct () =
  let t = build_buckets ~k:8 () in
  for v = 0 to 255 do
    for level = 1 to bits do
      let contacts = Array.to_list (Overlay.Kbucket.bucket t v level) in
      Alcotest.(check int) "distinct"
        (List.length contacts)
        (List.length (List.sort_uniq compare contacts))
    done
  done

let test_bucket_prefix_property () =
  let t = build_buckets ~k:4 () in
  for v = 0 to 255 do
    for level = 1 to bits do
      Array.iter
        (fun c ->
          Alcotest.(check int) "prefix" (level - 1) (Idspace.Id.common_prefix_length ~bits v c))
        (Overlay.Kbucket.bucket t v level)
    done
  done

let test_bucket_copy_isolated () =
  (* [bucket] must return a copy: mutating it cannot corrupt the table.
     This pins the aliasing fix — the accessor used to hand out the
     live backing array. *)
  let t = build_buckets ~k:3 () in
  let snapshot = Overlay.Kbucket.bucket t 7 1 in
  let before = Array.copy snapshot in
  Array.fill snapshot 0 (Array.length snapshot) (-1);
  Alcotest.(check (array int)) "table unchanged" before (Overlay.Kbucket.bucket t 7 1);
  Alcotest.(check (option string)) "invariants hold" None (Overlay.Kbucket.invariant_violation t);
  (* The allocation-free accessors read the same contents. *)
  Alcotest.(check (array int)) "accessors agree" before
    (Array.init (Overlay.Kbucket.length t 7 1) (Overlay.Kbucket.contact t 7 1))

let test_bucket_observe_lru () =
  let t = build_buckets ~k:3 () in
  let before = Overlay.Kbucket.bucket t 7 1 in
  (* Hearing from the current head moves it to the tail; the others
     shift up preserving relative order. *)
  Overlay.Kbucket.observe t 7 before.(0);
  let after = Overlay.Kbucket.bucket t 7 1 in
  Alcotest.(check (array int)) "head rotated to tail"
    [| before.(1); before.(2); before.(0) |]
    after;
  (* Observing a contact already at the tail is a no-op on the order. *)
  Overlay.Kbucket.observe t 7 before.(0);
  Alcotest.(check (array int)) "tail stays put" after (Overlay.Kbucket.bucket t 7 1)

let test_bucket_cache_promotion () =
  let t = Overlay.Kbucket.build ~rng:(rng_of_seed 3) ~cache_k:2 ~bits ~k:3 () in
  let v = 0 in
  let in_bucket = Array.to_list (Overlay.Kbucket.bucket t v 1) in
  (* Fresh level-1 contacts of node 0: MSB set, not already present. *)
  let fresh =
    List.filter (fun c -> not (List.mem c in_bucket)) [ 0x80; 0x81; 0x82; 0x83 ]
  in
  let c1, c2, c3 = (List.nth fresh 0, List.nth fresh 1, List.nth fresh 2) in
  (* The bucket is full (k = 3 of 128 candidates), so new observations
     land in the replacement cache, oldest first, bounded at cache_k. *)
  Overlay.Kbucket.observe t v c1;
  Overlay.Kbucket.observe t v c2;
  Alcotest.(check (array int)) "cache fills" [| c1; c2 |] (Overlay.Kbucket.cache t v 1);
  Overlay.Kbucket.observe t v c3;
  Alcotest.(check (array int)) "oldest dropped at bound" [| c2; c3 |]
    (Overlay.Kbucket.cache t v 1);
  (* Re-observing a cached entry moves it to the newest slot. *)
  Overlay.Kbucket.observe t v c2;
  Alcotest.(check (array int)) "cache LRU refresh" [| c3; c2 |] (Overlay.Kbucket.cache t v 1);
  (* Kill the head: the ping-before-evict pass must evict it and
     promote the most-recently-seen cache entry (c2) to the bucket
     tail. *)
  let before = Overlay.Kbucket.bucket t v 1 in
  let alive = Overlay.Failure.none (1 lsl bits) in
  Overlay.Failure.set alive before.(0) false;
  Overlay.Kbucket.maintain t v ~alive;
  Alcotest.(check (array int)) "dead head evicted, newest cache entry promoted"
    [| before.(1); before.(2); c2 |]
    (Overlay.Kbucket.bucket t v 1);
  Alcotest.(check (array int)) "cache shrank" [| c3 |] (Overlay.Kbucket.cache t v 1);
  Alcotest.(check (option string)) "invariants hold" None (Overlay.Kbucket.invariant_violation t)

let test_bucket_ping_refreshes_live_head () =
  let t = build_buckets ~k:3 () in
  let before = Array.init bits (fun l -> Overlay.Kbucket.bucket t 7 (l + 1)) in
  Overlay.Kbucket.maintain t 7 ~alive:(Overlay.Failure.none (1 lsl bits));
  (* Every live head rotates to its bucket's tail; nothing is evicted. *)
  Array.iteri
    (fun l b ->
      let n = Array.length b in
      Alcotest.(check (array int))
        (Printf.sprintf "level %d: head rotated to tail" (l + 1))
        (Array.init n (fun i -> b.((i + 1) mod n)))
        (Overlay.Kbucket.bucket t 7 (l + 1)))
    before

let kbucket_invariants_under_churn =
  qcheck "k-bucket invariants survive random churn" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = rng_of_seed seed in
      let t = Overlay.Kbucket.build ~rng:(rng_of_seed (seed + 1)) ~cache_k:2 ~bits:6 ~k:3 () in
      let n = 1 lsl 6 in
      let alive = Overlay.Failure.none n in
      for _ = 1 to 300 do
        let v = Prng.Splitmix.int rng n in
        match Prng.Splitmix.int rng 4 with
        | 0 -> Overlay.Failure.set alive (Prng.Splitmix.int rng n) (coin rng)
        | 1 ->
            let id = Prng.Splitmix.int rng n in
            if id <> v then Overlay.Kbucket.observe t v id
        | 2 -> Overlay.Kbucket.maintain t v ~alive
        | _ -> Overlay.Kbucket.rejoin t rng ~alive v
      done;
      match Overlay.Kbucket.invariant_violation t with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* A list-based reference model of the k-bucket rules: per bucket, the
   contacts least-recently-seen first and the replacement cache oldest
   first. Liveness is an alive mask, read through [Failure.get].
   Builds and rejoins replay the sampling rule with their own copy of
   the generator, so the model also pins the draws. *)
module Kbucket_model = struct
  type t = {
    bits : int;
    k : int;
    cache_k : int;
    contacts : int list array;
    cache : int list array;
  }

  let slot m v level = (v * m.bits) + level - 1

  let capacity m level = min m.k (1 lsl (m.bits - level))

  let remove x l = List.filter (fun y -> y <> x) l

  let sample ?alive m rng v level =
    let bits = m.bits in
    let base = Idspace.Id.flip_bit ~bits v level in
    let id_of suffix = Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix in
    let candidates = 1 lsl (bits - level) in
    if candidates <= m.k then List.init candidates id_of
    else begin
      let is_alive id =
        match alive with None -> true | Some mask -> Overlay.Failure.get mask id
      in
      let rec fill chosen =
        if List.length chosen = m.k then List.rev_map id_of chosen
        else begin
          let rec draw attempts =
            let suffix = Prng.Splitmix.int rng candidates in
            if List.mem suffix chosen then draw attempts
            else if attempts >= 8 || is_alive (id_of suffix) then suffix
            else draw (attempts + 1)
          in
          fill (draw 0 :: chosen)
        end
      in
      fill []
    end

  let build m rng =
    for v = 0 to (1 lsl m.bits) - 1 do
      for level = 1 to m.bits do
        m.contacts.(slot m v level) <- sample m rng v level
      done
    done

  let create ~bits ~k ~cache_k rng =
    let buckets = (1 lsl bits) * bits in
    let m =
      { bits; k; cache_k; contacts = Array.make buckets []; cache = Array.make buckets [] }
    in
    build m rng;
    m

  let observe m v id =
    if v <> id then begin
      let level = Option.get (Idspace.Id.highest_differing_bit ~bits:m.bits v id) in
      let b = slot m v level in
      if List.mem id m.contacts.(b) then m.contacts.(b) <- remove id m.contacts.(b) @ [ id ]
      else if List.length m.contacts.(b) < capacity m level then
        m.contacts.(b) <- m.contacts.(b) @ [ id ]
      else if m.cache_k > 0 then begin
        let c = remove id m.cache.(b) @ [ id ] in
        m.cache.(b) <- (if List.length c > m.cache_k then List.tl c else c)
      end
    end

  (* Ping-before-evict on one bucket's head. *)
  let ping m v level ~alive =
    let b = slot m v level in
    match m.contacts.(b) with
    | [] -> ()
    | head :: rest when Overlay.Failure.get alive head -> m.contacts.(b) <- rest @ [ head ]
    | _ :: rest -> (
        match List.rev m.cache.(b) with
        | [] -> m.contacts.(b) <- rest
        | newest :: older ->
            m.cache.(b) <- List.rev older;
            m.contacts.(b) <- rest @ [ newest ])

  let maintain m v ~alive =
    for level = 1 to m.bits do
      ping m v level ~alive
    done

  (* Every level redrawn preferring live contacts, with its cache
     cleared, then the announce to each live contact, buckets in level
     order, heads first. *)
  let rejoin m rng ~alive v =
    for level = 1 to m.bits do
      let b = slot m v level in
      m.contacts.(b) <- sample ~alive m rng v level;
      m.cache.(b) <- []
    done;
    for level = 1 to m.bits do
      List.iter
        (fun c -> if Overlay.Failure.get alive c then observe m c v)
        m.contacts.(slot m v level)
    done

  (* Dead contacts plus empty slots, over the live nodes' buckets, and
     their total capacity. *)
  let stale_slots m ~alive =
    let stale = ref 0 and total = ref 0 in
    for v = 0 to (1 lsl m.bits) - 1 do
      if Overlay.Failure.get alive v then
        for level = 1 to m.bits do
          let contacts = m.contacts.(slot m v level) in
          let dead = List.filter (fun c -> not (Overlay.Failure.get alive c)) contacts in
          total := !total + capacity m level;
          stale := !stale + capacity m level - List.length contacts + List.length dead
        done
    done;
    (!stale, !total)

  (* First bucket or cache that differs from the table, if any. *)
  let mismatch m t =
    let found = ref None in
    for v = 0 to (1 lsl m.bits) - 1 do
      for level = 1 to m.bits do
        let b = slot m v level in
        let real = Array.to_list (Overlay.Kbucket.bucket t v level) in
        let real_cache = Array.to_list (Overlay.Kbucket.cache t v level) in
        if !found = None && (real <> m.contacts.(b) || real_cache <> m.cache.(b)) then
          found := Some (Printf.sprintf "node %d level %d" v level)
      done
    done;
    !found
end

type kbucket_op =
  | Toggle of int
  | Observe of int * int
  | Maintain of int
  | Rejoin of int

(* Most operations act on four owners, so their buckets fill, their
   caches overflow and their heads get evicted within one run. *)
let kbucket_op_gen =
  let open QCheck2.Gen in
  let node = int_range 0 63 in
  let owner = frequency [ (4, int_range 0 3); (1, node) ] in
  frequency
    [
      (2, map (fun v -> Toggle v) node);
      (2, map2 (fun v id -> Observe (v, id)) owner node);
      (2, map (fun v -> Maintain v) owner);
      (1, map (fun v -> Rejoin v) node);
    ]

(* k = 3 draws every bucket above level 4 at bits = 6; k = 8
   enumerates levels 3 to 6, whose candidate sets are no larger. *)
let kbucket_matches_model =
  qcheck "k-bucket rules match a list model" ~count:100
    QCheck2.Gen.(
      pair
        (triple (oneofl [ 3; 8 ]) (oneofl [ 0; 2 ]) (int_range 0 10_000))
        (list_size (int_range 1 200) kbucket_op_gen))
    (fun ((k, cache_k, seed), ops) ->
      let bits = 6 in
      let rng = rng_of_seed seed in
      let model_rng = rng_of_seed seed in
      let t = Overlay.Kbucket.build ~rng ~cache_k ~bits ~k () in
      let m = Kbucket_model.create ~bits ~k ~cache_k model_rng in
      let alive = Overlay.Failure.none (1 lsl bits) in
      let fail step what = QCheck2.Test.fail_reportf "step %d: %s" step what in
      let same_rng step =
        Prng.Splitmix.state rng = Prng.Splitmix.state model_rng
        || fail step "generator state diverged"
      in
      let same_tables step =
        match Kbucket_model.mismatch m t with None -> true | Some where -> fail step where
      in
      same_rng 0 && same_tables 0
      && List.for_all
           (fun (step, op) ->
             let drew =
               match op with
               | Toggle v ->
                   Overlay.Failure.set alive v (not (Overlay.Failure.get alive v));
                   false
               | Observe (v, id) ->
                   Overlay.Kbucket.observe t v id;
                   Kbucket_model.observe m v id;
                   false
               | Maintain v ->
                   Overlay.Kbucket.maintain t v ~alive;
                   Kbucket_model.maintain m v ~alive;
                   false
               | Rejoin v ->
                   Overlay.Kbucket.rejoin t rng ~alive v;
                   Kbucket_model.rejoin m model_rng ~alive v;
                   true
             in
             same_tables step && ((not drew) || same_rng step))
           (List.mapi (fun i op -> (i + 1, op)) ops)
      && (Overlay.Kbucket.stale_slots t ~alive = Kbucket_model.stale_slots m ~alive
         || fail (List.length ops) "stale_slots differs"))

let test_bucket_range_checks () =
  let t = Overlay.Kbucket.build ~rng:(rng_of_seed 9) ~cache_k:2 ~bits:6 ~k:3 () in
  let rng = rng_of_seed 10 in
  let alive = Overlay.Failure.none 64 and short = Overlay.Failure.none 63 in
  List.iter
    (fun (name, f) ->
      match f () with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("observe: node 64", fun () -> Overlay.Kbucket.observe t 64 0);
      ("observe: node -1", fun () -> Overlay.Kbucket.observe t (-1) 0);
      ("observe: contact 64", fun () -> Overlay.Kbucket.observe t 0 64);
      ("observe: contact -1", fun () -> Overlay.Kbucket.observe t 0 (-1));
      ("observe: node 64 = contact", fun () -> Overlay.Kbucket.observe t 64 64);
      ("maintain: node -1", fun () -> Overlay.Kbucket.maintain t (-1) ~alive);
      ("maintain: node 64", fun () -> Overlay.Kbucket.maintain t 64 ~alive);
      ("maintain: short mask", fun () -> Overlay.Kbucket.maintain t 0 ~alive:short);
      ("rejoin: node 64", fun () -> Overlay.Kbucket.rejoin t rng ~alive 64);
      ("rejoin: node -1", fun () -> Overlay.Kbucket.rejoin t rng ~alive (-1));
      ("rejoin: short mask", fun () -> Overlay.Kbucket.rejoin t rng ~alive:short 0);
      ("stale_slots: short mask", fun () -> ignore (Overlay.Kbucket.stale_slots t ~alive:short));
      ("bucket: node 64", fun () -> ignore (Overlay.Kbucket.bucket t 64 1));
      ("cache: node -1", fun () -> ignore (Overlay.Kbucket.cache t (-1) 1));
      ("length: level 7", fun () -> ignore (Overlay.Kbucket.length t 0 7));
      ("contact: index k", fun () -> ignore (Overlay.Kbucket.contact t 0 1 3));
      ("contact: index -1", fun () -> ignore (Overlay.Kbucket.contact t 0 1 (-1)));
    ];
  Alcotest.(check (option string)) "rejected calls left the table intact" None
    (Overlay.Kbucket.invariant_violation t)

(* --- Bucket routing ----------------------------------------------------------- *)

let all_alive = Overlay.Failure.none (1 lsl bits)

let test_bucket_route_no_failures () =
  let t = build_buckets ~k:3 () in
  List.iter
    (fun mode ->
      let failures = ref 0 in
      for src = 0 to 255 do
        let dst = (src + 99) land 255 in
        if dst <> src then
          match Routing.Bucket_router.route ~mode t ~alive:all_alive ~src ~dst with
          | Routing.Outcome.Delivered _ -> ()
          | Routing.Outcome.Dropped _ -> incr failures
      done;
      Alcotest.(check int) "no drops" 0 !failures)
    [ `Tree; `Xor ]

let test_bucket_route_k1_matches_table_router () =
  (* With k = 1 and the same failure pattern, bucket routing and the
     basic XOR router implement the same protocol (different random
     tables, but both must deliver at q = 0 in <= bits hops). *)
  let t = build_buckets ~k:1 () in
  match Routing.Bucket_router.route ~mode:`Xor t ~alive:all_alive ~src:5 ~dst:250 with
  | Routing.Outcome.Delivered { hops } -> Alcotest.(check bool) "hops bound" true (hops <= bits)
  | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped at q=0"

let test_bucket_route_survives_dead_primary () =
  (* Tree mode with k = 2: kill one contact of the needed bucket; the
     backup must be used. *)
  let t = build_buckets ~k:2 ~seed:77 () in
  let src = 0 in
  let bucket = Overlay.Kbucket.bucket t src 1 in
  let dst = bucket.(0) lxor 1 land 255 in
  (* Pick a dst whose leading differing bit is 1 and kill the first
     contact. *)
  let dst = if Idspace.Id.get_bit ~bits dst 1 = Idspace.Id.get_bit ~bits src 1 then dst lxor 0x80 else dst in
  let alive = Overlay.Failure.none (1 lsl bits) in
  Overlay.Failure.set alive bucket.(0) false;
  if bucket.(1) = dst then ()
  else begin
    match Routing.Bucket_router.route ~mode:`Tree t ~alive ~src ~dst with
    | Routing.Outcome.Delivered _ -> ()
    | Routing.Outcome.Dropped { hops = 0; stuck_at } ->
        Alcotest.failf "dropped immediately at %d despite backup" stuck_at
    | Routing.Outcome.Dropped _ -> ()
  end

let bucket_routing_improves_with_k =
  qcheck "larger buckets deliver at least as often (aggregate)"
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      let rng = rng_of_seed seed in
      let q = 0.3 in
      let count k =
        let t = Overlay.Kbucket.build ~rng:(rng_of_seed seed) ~bits ~k () in
        let alive = Overlay.Failure.sample ~rng:(rng_of_seed (seed + 1)) ~q (1 lsl bits) in
        let pool = Overlay.Failure.survivors alive in
        if Array.length pool < 2 then 0
        else begin
          let delivered = ref 0 in
          for _ = 1 to 60 do
            let src, dst = Stats.Sampler.ordered_pair rng pool in
            if
              Helpers.delivered
                (Routing.Bucket_router.route ~mode:`Xor t ~alive ~src ~dst)
            then incr delivered
          done;
          !delivered
        end
      in
      (* Aggregate statistical check with generous slack: k = 4 should
         not lose to k = 1 by more than noise. *)
      count 4 >= count 1 - 12)

(* --- Successor lists ------------------------------------------------------------ *)

let test_successor_table_layout () =
  let t = Overlay.Table.build_ring_with_successors ~bits ~successors:4 () in
  Alcotest.(check int) "degree" (bits + 4) (Array.length (Overlay.Table.neighbors t 0));
  (* Extra entries are the next nodes clockwise. *)
  for j = 0 to 3 do
    Alcotest.(check int) "successor distance" (j + 1)
      (Idspace.Id.ring_distance ~bits 10 (Overlay.Table.neighbor t 10 (bits + j)))
  done

let test_successor_routing_beats_plain_ring () =
  (* Same seed, q = 0.5: an 8-successor list must deliver at least as
     many sampled routes as plain fingers. *)
  let count table =
    let rng = rng_of_seed 5 in
    let alive = Overlay.Failure.sample ~rng:(rng_of_seed 6) ~q:0.5 (1 lsl bits) in
    let pool = Overlay.Failure.survivors alive in
    let delivered = ref 0 in
    for _ = 1 to 400 do
      let src, dst = Stats.Sampler.ordered_pair rng pool in
      if Helpers.delivered (Routing.Router.route table ~rng ~alive ~src ~dst)
      then incr delivered
    done;
    !delivered
  in
  let plain = count (Overlay.Table.build ~rng:(rng_of_seed 1) ~bits Rcm.Geometry.Ring) in
  let with_successors = count (Overlay.Table.build_ring_with_successors ~bits ~successors:8 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%d >= %d" with_successors plain)
    true
    (with_successors >= plain)

(* --- A5 experiment ------------------------------------------------------------ *)

(* Grid points where raising the knob (consecutive labels) lowered
   analytical routability. *)
let monotonicity_violations series ~labels =
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  List.concat_map
    (fun (small, large) ->
      List.map
        (fun q -> (q, small, large))
        (violations series small large (fun s l -> l < s -. 1e-9)))
    (pairs labels)

let test_a5_analysis_monotone () =
  let cfg =
    { Experiments.Replication_sweep.default_config with bits = 10; qs = [ 0.1; 0.3; 0.5 ];
      trials = 1; pairs = 200 }
  in
  let s = Experiments.Replication_sweep.xor_series cfg in
  Alcotest.(check (list (triple (float 0.0) string string)))
    "monotone" []
    (monotonicity_violations s
       ~labels:[ "k=1(ana)"; "k=2(ana)"; "k=4(ana)"; "k=8(ana)" ])

let test_a5_analysis_is_lower_bound_for_k2 () =
  (* For k >= 2 the analysis charges the destination-adjacent phases as
     if their buckets were ordinary, so it lower-bounds the simulated
     protocol (deep buckets contain the alive destination). *)
  let cfg =
    { Experiments.Replication_sweep.default_config with bits = 10; qs = [ 0.1; 0.3 ];
      trials = 2; pairs = 1_000 }
  in
  let s = Experiments.Replication_sweep.xor_series cfg in
  List.iter
    (fun q ->
      let ana = Option.get (Helpers.value_at s ~label:"k=4(ana)" ~x:q) in
      let sim = Option.get (Helpers.value_at s ~label:"k=4(sim)" ~x:q) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.1f: sim %.3f >= ana %.3f" q sim ana)
        true
        (sim >= ana -. 0.03))
    [ 0.1; 0.3 ]

let small_sweep_config =
  { Experiments.Replication_sweep.bits = 8; qs = [ 0.2; 0.5 ]; ks = [ 1; 2 ];
    trials = 1; pairs = 60; seed = 71 }

let test_a5_monotone_all_geometries () =
  (* The A5 violation detector wired over every series on a small grid:
     a correct build reports none anywhere. *)
  let check name series labels =
    match monotonicity_violations series ~labels with
    | [] -> ()
    | (q, small, large) :: _ ->
        Alcotest.failf "%s violation at q=%g: %s -> %s" name q small large
  in
  check "xor"
    (Experiments.Replication_sweep.xor_series small_sweep_config)
    [ "k=1(ana)"; "k=2(ana)" ];
  check "tree"
    (Experiments.Replication_sweep.tree_series small_sweep_config)
    [ "k=1(ana)"; "k=2(ana)" ];
  check "ring"
    (Experiments.Replication_sweep.ring_series small_sweep_config)
    [ "r=0(ana)"; "r=4(ana)" ]

let test_ring_column_bounded_by_replica_survival () =
  (* Cross-check against the storage layer's closed form: a routed
     lookup that finds data implies the data survived, so
     P(dst alive) * routability(successors = R - 1) can never exceed
     P(at least 1 of R replicas alive) = Data_availability at quorum 1.
     First over the actual A5 ring series... *)
  let series = Experiments.Replication_sweep.ring_series small_sweep_config in
  List.iter
    (fun successors ->
      let label = Printf.sprintf "r=%d(ana)" successors in
      List.iter
        (fun q ->
          match Helpers.value_at series ~label ~x:q with
          | Some routability ->
              let bound =
                Rcm.Data_availability.replica_survival ~q ~r:(successors + 1)
                  ~quorum:1
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s at q=%g: %.4f bounded by %.4f" label q
                   routability bound)
                true
                (((1. -. q) *. routability) <= bound +. 1e-12)
          | None -> Alcotest.failf "missing column %s" label)
        small_sweep_config.Experiments.Replication_sweep.qs)
    [ 0; 4 ];
  (* ... then densely over the closed forms themselves. *)
  List.iter
    (fun q ->
      List.iter
        (fun r ->
          let routability =
            Rcm.Replication.routability_ring ~d:12 ~q ~successors:(r - 1)
          in
          let bound = Rcm.Data_availability.replica_survival ~q ~r ~quorum:1 in
          Alcotest.(check bool)
            (Printf.sprintf "q=%g R=%d" q r)
            true
            (((1. -. q) *. routability) <= bound +. 1e-12))
        [ 1; 2; 4; 8 ])
    [ 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.9 ]

let suite =
  [
    ("capacity", `Quick, test_capacity);
    ("effective successors", `Quick, test_effective_successors);
    ("reduces to base at k=1", `Quick, test_reduces_to_base_at_k1);
    ("destination still required", `Quick, test_destination_still_required);
    ("tree replication closed form", `Quick, test_tree_replication_closed_form);
    replication_never_hurts;
    successors_never_hurt;
    replicated_q_is_probability;
    ("k-bucket sizes", `Quick, test_bucket_sizes);
    ("k-bucket contacts distinct", `Quick, test_bucket_contacts_distinct);
    ("k-bucket prefix property", `Quick, test_bucket_prefix_property);
    ("k-bucket copy isolation", `Quick, test_bucket_copy_isolated);
    ("k-bucket LRU on observe", `Quick, test_bucket_observe_lru);
    ("k-bucket cache promotion", `Quick, test_bucket_cache_promotion);
    ("k-bucket ping refreshes live head", `Quick, test_bucket_ping_refreshes_live_head);
    kbucket_invariants_under_churn;
    kbucket_matches_model;
    ("k-bucket range checks", `Quick, test_bucket_range_checks);
    ("bucket routing at q=0", `Quick, test_bucket_route_no_failures);
    ("bucket routing k=1 sanity", `Quick, test_bucket_route_k1_matches_table_router);
    ("bucket routing uses backups", `Quick, test_bucket_route_survives_dead_primary);
    bucket_routing_improves_with_k;
    ("successor table layout", `Quick, test_successor_table_layout);
    ("successor routing beats plain ring", `Quick, test_successor_routing_beats_plain_ring);
    ("A5 analysis monotone in k", `Quick, test_a5_analysis_monotone);
    ("A5 analysis lower-bounds sim at k>=2", `Slow, test_a5_analysis_is_lower_bound_for_k2);
    ("A5 monotone on all geometries", `Quick, test_a5_monotone_all_geometries);
    ("A5 ring column vs replica survival", `Quick, test_ring_column_bounded_by_replica_survival);
  ]
