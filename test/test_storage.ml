open Helpers

(* --- Fixtures --------------------------------------------------------------- *)

let build ?(bits = 8) ?(nodes = 64) ?(seed = 11) geometry =
  let rng = Prng.Splitmix.create ~seed in
  Overlay.Sparse.build ~rng ~bits ~nodes geometry

let mk_store ?(bits = 8) ?(nodes = 64) ?(keys = 8) ?(r = 2) ?(rq = 2) ?(wq = 1)
    ?(seed = 21) ?zipf_s geometry =
  let rng = Prng.Splitmix.create ~seed in
  let overlay = Overlay.Sparse.build ~rng ~bits ~nodes geometry in
  let quorum = Storage.Quorum.make ~r ~rq ~wq in
  (overlay, Storage.Store.create ?zipf_s ~keys ~quorum ~rng overlay)

let rejects msg f =
  Alcotest.(check bool) msg true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* --- Placement -------------------------------------------------------------- *)

let test_ring_placement_is_successor_list () =
  let o = build Rcm.Geometry.Ring in
  let n = Overlay.Sparse.node_count o in
  let space = 1 lsl Overlay.Sparse.bits o in
  let rng = Prng.Splitmix.create ~seed:3 in
  for _ = 1 to 50 do
    let key = Prng.Splitmix.int rng space in
    let r = 1 + Prng.Splitmix.int rng 6 in
    let first = Overlay.Sparse.successor_index o key in
    let expected = Array.init r (fun i -> (first + i) mod n) in
    Alcotest.(check (array int))
      (Printf.sprintf "key=%d r=%d" key r)
      expected
      (Storage.Placement.replica_set o ~key ~r)
  done

let brute_closest o ~key ~count =
  let idx = Array.init (Overlay.Sparse.node_count o) Fun.id in
  Array.sort
    (fun a b ->
      compare
        (Idspace.Id.xor_distance (Overlay.Sparse.id_of o a) key)
        (Idspace.Id.xor_distance (Overlay.Sparse.id_of o b) key))
    idx;
  Array.sub idx 0 count

(* Random overlays from 2 nodes to a full space, every count up to the
   node count: the trie descent against a sort of the whole overlay. *)
let xor_placement_matches_brute_force =
  qcheck "xor placement = brute force" ~count:150
    QCheck2.Gen.(
      let* bits = int_range 2 14 in
      let* nodes = int_range 2 (1 lsl bits) in
      let* count = int_range 0 nodes in
      triple
        (pair (oneofl [ Rcm.Geometry.Xor; Rcm.Geometry.Tree ]) (int_range 0 10_000))
        (pure (bits, nodes, count))
        (int_range 0 ((1 lsl bits) - 1)))
    (fun ((geometry, seed), (bits, nodes, count), key) ->
      let o = build ~bits ~nodes ~seed geometry in
      brute_closest o ~key ~count = Storage.Placement.candidates o ~key ~count
      || QCheck2.Test.fail_reportf "%s bits=%d nodes=%d key=%d count=%d"
           (Rcm.Geometry.name geometry) bits nodes key count)

let test_placement_prefix_stable () =
  (* Rank k of the candidate enumeration never changes as the
     enumeration is extended — repair relies on this to promote the
     next candidate deterministically. *)
  List.iter
    (fun geometry ->
      let o = build geometry in
      let key = 201 in
      let small = Storage.Placement.candidates o ~key ~count:4 in
      let large = Storage.Placement.candidates o ~key ~count:12 in
      Alcotest.(check (array int))
        (Rcm.Geometry.slug geometry)
        small (Array.sub large 0 4))
    (* Every geometry with a sparse overlay must expose a prefix-stable
       placement enumeration. *)
    Helpers.sparse_geometries

let test_placement_distinct_and_whole_overlay () =
  let o = build Rcm.Geometry.Xor ~nodes:32 in
  let all = Storage.Placement.candidates o ~key:77 ~count:32 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "every node exactly once" (Array.init 32 Fun.id) sorted

let test_placement_guards () =
  let o = build Rcm.Geometry.Ring ~nodes:16 in
  rejects "count > node_count" (fun () ->
      Storage.Placement.candidates o ~key:0 ~count:17);
  rejects "negative count" (fun () -> Storage.Placement.candidates o ~key:0 ~count:(-1));
  rejects "key outside space" (fun () ->
      Storage.Placement.candidates o ~key:(1 lsl 8) ~count:1)

(* --- Quorum algebra --------------------------------------------------------- *)

let test_quorum_make_guards () =
  rejects "r=0" (fun () -> Storage.Quorum.make ~r:0 ~rq:1 ~wq:1);
  rejects "rq=0" (fun () -> Storage.Quorum.make ~r:3 ~rq:0 ~wq:1);
  rejects "rq>r" (fun () -> Storage.Quorum.make ~r:3 ~rq:4 ~wq:1);
  rejects "wq>r" (fun () -> Storage.Quorum.make ~r:3 ~rq:1 ~wq:4)

let test_quorum_majority () =
  List.iter
    (fun (r, expect) ->
      let q = Storage.Quorum.majority ~r in
      Alcotest.(check int) (Printf.sprintf "rq at r=%d" r) expect q.Storage.Quorum.rq;
      Alcotest.(check int) (Printf.sprintf "wq at r=%d" r) expect q.Storage.Quorum.wq;
      Alcotest.(check bool)
        (Printf.sprintf "majority intersects at r=%d" r)
        true
        (q.Storage.Quorum.rq + q.Storage.Quorum.wq > r))
    [ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]

let test_threshold_of_string () =
  let check spec ~r expect =
    match (Storage.Quorum.threshold_of_string ~r spec, expect) with
    | Ok got, Some want -> Alcotest.(check int) spec want got
    | Error _, None -> ()
    | Ok got, None -> Alcotest.failf "%s accepted as %d" spec got
    | Error e, Some _ -> Alcotest.failf "%s rejected: %s" spec e
  in
  check "majority" ~r:5 (Some 3);
  check "one" ~r:5 (Some 1);
  check "all" ~r:5 (Some 5);
  check "3" ~r:5 (Some 3);
  check "0" ~r:5 None;
  check "6" ~r:5 None;
  check "most" ~r:5 None

let test_quorum_classify () =
  let q = Storage.Quorum.make ~r:5 ~rq:3 ~wq:3 in
  Alcotest.(check bool) "quorum" true (Storage.Quorum.classify q ~reached:3 = Quorum);
  Alcotest.(check bool) "over quorum" true (Storage.Quorum.classify q ~reached:5 = Quorum);
  Alcotest.(check bool) "degraded" true
    (Storage.Quorum.classify q ~reached:2 = Degraded 2);
  Alcotest.(check bool) "unavailable" true
    (Storage.Quorum.classify q ~reached:0 = Unavailable);
  rejects "negative reached" (fun () -> Storage.Quorum.classify q ~reached:(-1))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let quorum_intersection =
  (* rq + wq > r iff EVERY rq-subset of the replicas meets every
     wq-subset — checked exhaustively over bitmask subsets. *)
  qcheck ~count:100 "read-your-writes iff all quorums intersect"
    QCheck2.Gen.(
      int_range 1 6 >>= fun r ->
      triple (return r) (int_range 1 r) (int_range 1 r))
    (fun (r, rq, wq) ->
      let always = ref true in
      for a = 0 to (1 lsl r) - 1 do
        if popcount a = rq then
          for b = 0 to (1 lsl r) - 1 do
            if popcount b = wq && a land b = 0 then always := false
          done
      done;
      let q = Storage.Quorum.make ~r ~rq ~wq in
      (q.Storage.Quorum.rq + q.Storage.Quorum.wq > q.Storage.Quorum.r) = !always)

(* --- Leslie closed form ------------------------------------------------------ *)

let survival = Rcm.Data_availability.replica_survival

let test_survival_closed_forms () =
  List.iter
    (fun q ->
      List.iter
        (fun r ->
          let fr = float_of_int r in
          check_close
            ~msg:(Printf.sprintf "any-replica q=%g r=%d" q r)
            (1. -. (q ** fr))
            (survival ~q ~r ~quorum:1);
          check_close
            ~msg:(Printf.sprintf "all-replicas q=%g r=%d" q r)
            ((1. -. q) ** fr)
            (survival ~q ~r ~quorum:r))
        [ 1; 2; 4; 8 ])
    [ 0.0; 0.1; 0.3; 0.7; 1.0 ]

let test_survival_edges () =
  check_close ~msg:"quorum 0" 1.0 (survival ~q:0.9 ~r:3 ~quorum:0);
  check_close ~msg:"quorum > r" 0.0 (survival ~q:0.1 ~r:3 ~quorum:4);
  rejects "r=0" (fun () -> survival ~q:0.5 ~r:0 ~quorum:1);
  rejects "q>1" (fun () -> survival ~q:1.5 ~r:2 ~quorum:1)

let survival_monotone =
  qcheck "survival monotone in q, quorum and r"
    QCheck2.Gen.(quad prob_gen prob_gen (int_range 1 12) (int_range 1 12))
    (fun (q1, q2, r, quorum) ->
      let quorum = min quorum r in
      let lo = min q1 q2 and hi = max q1 q2 in
      survival ~q:hi ~r ~quorum <= survival ~q:lo ~r ~quorum +. 1e-12
      && survival ~q:lo ~r ~quorum:(min r (quorum + 1))
         <= survival ~q:lo ~r ~quorum +. 1e-12
      && survival ~q:lo ~r:(r + 1) ~quorum >= survival ~q:lo ~r ~quorum -. 1e-12)

let survival_is_probability =
  qcheck "survival stays a probability"
    QCheck2.Gen.(triple prob_gen (int_range 1 20) (int_range 1 20))
    (fun (q, r, quorum) -> Numerics.Prob.is_valid (survival ~q ~r ~quorum))

(* --- Store: quorum reads and read-repair ------------------------------------- *)

let test_store_guards () =
  let o = build Rcm.Geometry.Ring ~nodes:16 in
  let rng = Prng.Splitmix.create ~seed:1 in
  rejects "keys < 1" (fun () ->
      Storage.Store.create ~keys:0 ~quorum:(Storage.Quorum.majority ~r:2) ~rng o);
  rejects "r > node_count" (fun () ->
      Storage.Store.create ~keys:4 ~quorum:(Storage.Quorum.majority ~r:17) ~rng o)

let test_read_all_alive_reaches_quorum () =
  let o, st = mk_store Rcm.Geometry.Ring ~keys:4 ~r:3 ~rq:2 ~wq:2 in
  let alive = Overlay.Failure.none (Overlay.Sparse.node_count o) in
  let rng = Prng.Splitmix.create ~seed:8 in
  for _ = 1 to 40 do
    let client = Prng.Splitmix.int rng (Overlay.Sparse.node_count o) in
    let stats = Storage.Store.read st ~rng ~alive ~client in
    Alcotest.(check bool) "quorum" true (stats.Storage.Store.outcome = Quorum);
    Alcotest.(check bool) "reached >= rq" true (stats.Storage.Store.reached >= 2);
    Alcotest.(check int) "no repair routes" 0 stats.Storage.Store.repair_routes;
    Alcotest.(check int) "no transfers" 0 stats.Storage.Store.repair_transfers
  done

let test_read_consumes_one_uniform () =
  (* The documented draw-alignment contract: one Zipf rank per read,
     nothing else touches the stream. *)
  let o, st = mk_store Rcm.Geometry.Ring ~keys:8 ~r:2 ~rq:1 ~wq:2 in
  let alive = Overlay.Failure.none (Overlay.Sparse.node_count o) in
  let a = Prng.Splitmix.create ~seed:5 in
  let b = Prng.Splitmix.create ~seed:5 in
  ignore (Prng.Splitmix.float b);
  ignore (Storage.Store.read st ~rng:a ~alive ~client:0);
  Alcotest.(check int64) "one uniform consumed" (Prng.Splitmix.next_int64 b)
    (Prng.Splitmix.next_int64 a)

let test_read_repair_replaces_dead_holder () =
  let o, st = mk_store Rcm.Geometry.Ring ~keys:1 ~r:2 ~rq:2 ~wq:1 in
  let n = Overlay.Sparse.node_count o in
  let initial = Storage.Store.initial_holders st 0 in
  let alive = Overlay.Failure.none n in
  Overlay.Failure.set alive initial.(1) false;
  let rng = Prng.Splitmix.create ~seed:99 in
  let stats = Storage.Store.read st ~rng ~alive ~client:initial.(0) in
  Alcotest.(check bool) "degraded below rq" true
    (stats.Storage.Store.outcome = Degraded 1);
  Alcotest.(check int) "one transfer" 1 stats.Storage.Store.repair_transfers;
  Alcotest.(check bool) "at least one repair route" true
    (stats.Storage.Store.repair_routes >= 1);
  let after = Storage.Store.holders st 0 in
  Alcotest.(check int) "surviving holder kept" initial.(0) after.(0);
  Alcotest.(check bool) "dead holder replaced" true (after.(1) <> initial.(1));
  Alcotest.(check bool) "replacement is alive" true (Overlay.Failure.get alive after.(1));
  Alcotest.(check bool) "replacement is fresh" true
    (not (Array.mem after.(1) initial));
  (* The snapshot is immutable: survival still counts the dead initial
     holder, so the observable stays Binomial(r, 1-q). *)
  Alcotest.(check (array int)) "initial snapshot unchanged" initial
    (Storage.Store.initial_holders st 0);
  Alcotest.(check int) "survives at quorum 1" 1
    (Storage.Store.surviving_keys st ~alive ~quorum:1);
  Alcotest.(check int) "lost at quorum 2" 0
    (Storage.Store.surviving_keys st ~alive ~quorum:2)

let test_repaired_copy_serves_later_reads () =
  let o, st = mk_store Rcm.Geometry.Ring ~keys:1 ~r:2 ~rq:2 ~wq:1 in
  let n = Overlay.Sparse.node_count o in
  let initial = Storage.Store.initial_holders st 0 in
  let alive = Overlay.Failure.none n in
  Overlay.Failure.set alive initial.(1) false;
  let rng = Prng.Splitmix.create ~seed:99 in
  ignore (Storage.Store.read st ~rng ~alive ~client:initial.(0));
  (* The repaired holder set is fully alive: the next read reaches
     quorum again even though an initial holder is still dead. *)
  let stats = Storage.Store.read st ~rng ~alive ~client:initial.(0) in
  Alcotest.(check bool) "quorum restored" true (stats.Storage.Store.outcome = Quorum);
  Alcotest.(check int) "no further transfers" 0 stats.Storage.Store.repair_transfers

(* --- Failure_sim ------------------------------------------------------------- *)

let failure_config ?(keys = 8) ?(reads = 32) ?(trials = 2) ?(r = 2) ?(rq = 1) () =
  {
    Storage.Failure_sim.bits = 7;
    nodes = 64;
    keys;
    reads;
    zipf_s = 0.8;
    quorum = Storage.Quorum.make ~r ~rq ~wq:r;
    trials;
  }

let test_failure_sim_deterministic () =
  let cfg = failure_config () in
  let a = Storage.Failure_sim.run Rcm.Geometry.Xor cfg ~q:0.3 ~seed:42 in
  let b = Storage.Failure_sim.run Rcm.Geometry.Xor cfg ~q:0.3 ~seed:42 in
  Alcotest.(check bool) "bit-identical result" true (a = b)

let test_failure_sim_no_failures () =
  let cfg = failure_config ~rq:2 () in
  let r = Storage.Failure_sim.run Rcm.Geometry.Ring cfg ~q:0.0 ~seed:7 in
  check_close ~msg:"survival" 1.0 r.Storage.Failure_sim.survival;
  check_close ~msg:"alive" 1.0 r.Storage.Failure_sim.mean_alive;
  Alcotest.(check int) "no skipped reads" 0 r.Storage.Failure_sim.reads.no_client;
  Alcotest.(check int) "no repairs" 0 r.Storage.Failure_sim.reads.repair_transfers;
  (match r.Storage.Failure_sim.availability with
  | Some a -> check_close ~msg:"availability" 1.0 a
  | None -> Alcotest.fail "availability missing with alive clients");
  Alcotest.(check int) "attempted all" 64 r.Storage.Failure_sim.reads.attempted

let test_failure_sim_total_failure_honest () =
  (* q = 1: nobody is alive, so no read is ever attempted and the
     availability is *absent*, not a fabricated 0. *)
  let cfg = failure_config () in
  let r = Storage.Failure_sim.run Rcm.Geometry.Ring cfg ~q:1.0 ~seed:7 in
  Alcotest.(check int) "nothing attempted" 0 r.Storage.Failure_sim.reads.attempted;
  Alcotest.(check bool) "availability withheld" true
    (r.Storage.Failure_sim.availability = None);
  Alcotest.(check int) "all reads skipped" 64 r.Storage.Failure_sim.reads.no_client;
  check_close ~msg:"no survivors" 0.0 r.Storage.Failure_sim.survival

let test_failure_sim_loads_accounted () =
  let cfg = failure_config ~reads:64 ~trials:1 () in
  let r = Storage.Failure_sim.run Rcm.Geometry.Ring cfg ~q:0.0 ~seed:9 in
  (* Every read reaches exactly rq = 1 holder when everyone is alive,
     so total load equals the read count. *)
  check_close ~msg:"mean load * nodes = reads" 64.0
    (r.Storage.Failure_sim.load_mean *. 64.0);
  Alcotest.(check bool) "p99 >= mean" true
    (float_of_int r.Storage.Failure_sim.load_p99 >= r.Storage.Failure_sim.load_mean);
  Alcotest.(check bool) "max >= p99" true
    (r.Storage.Failure_sim.load_max >= r.Storage.Failure_sim.load_p99)

let test_failure_sim_registry () =
  (* Every geometry with a sparse overlay runs through the
     replicated-storage failure sweep with sane outputs. *)
  Helpers.sparse_geometries
  |> List.iter (fun geometry ->
         let slug = Rcm.Geometry.slug geometry in
         let r = Storage.Failure_sim.run geometry (failure_config ()) ~q:0.2 ~seed:5 in
         check_in_unit ~msg:(slug ^ " survival") r.Storage.Failure_sim.survival;
         check_in_unit ~msg:(slug ^ " alive") r.Storage.Failure_sim.mean_alive;
         match r.Storage.Failure_sim.availability with
         | Some a -> check_in_unit ~msg:(slug ^ " availability") a
         | None -> ())

(* --- Churn_sim --------------------------------------------------------------- *)

let churn_config ?(session_mean = 8.0) ?(gap_mean = 2.0) () =
  {
    Storage.Churn_sim.bits = 7;
    nodes = 64;
    keys = 8;
    reads = 32;
    zipf_s = 0.8;
    quorum = Storage.Quorum.make ~r:3 ~rq:2 ~wq:2;
    session = Sim.Lifetime.exponential ~mean:session_mean;
    gap = Sim.Lifetime.exponential ~mean:gap_mean;
    warmup = 4.0;
    measurements = 3;
    spacing = 2.0;
  }

let test_churn_sim_deterministic () =
  let cfg = churn_config () in
  let a = Storage.Churn_sim.run Rcm.Geometry.Xor cfg ~seed:31 in
  let b = Storage.Churn_sim.run Rcm.Geometry.Xor cfg ~seed:31 in
  Alcotest.(check bool) "bit-identical result" true (a = b)

let test_churn_sim_rates () =
  let cfg = churn_config ~session_mean:8.0 ~gap_mean:2.0 () in
  check_close ~msg:"churn rate" 0.1 (Storage.Churn_sim.churn_rate cfg)

let test_churn_sim_no_churn_limit () =
  (* Sessions far beyond the horizon: nobody ever departs, so every
     epoch reads at full availability. *)
  let cfg = churn_config ~session_mean:1e6 () in
  let r = Storage.Churn_sim.run Rcm.Geometry.Ring cfg ~seed:13 in
  check_close ~msg:"alive" 1.0 r.Storage.Churn_sim.mean_alive;
  check_close ~msg:"survival" 1.0 r.Storage.Churn_sim.survival;
  (match r.Storage.Churn_sim.availability with
  | Some a -> check_close ~msg:"availability" 1.0 a
  | None -> Alcotest.fail "availability missing without churn");
  Alcotest.(check int) "three epochs" 3 (List.length r.Storage.Churn_sim.measurements)

let test_churn_sim_processes_events () =
  let r = Storage.Churn_sim.run Rcm.Geometry.Ring (churn_config ()) ~seed:13 in
  Alcotest.(check bool) "events processed" true (r.Storage.Churn_sim.events > 0);
  Alcotest.(check bool) "alive fraction below 1" true
    (r.Storage.Churn_sim.mean_alive < 1.0)

(* --- Storage_sweep ------------------------------------------------------------ *)

let sweep_config =
  {
    Experiments.Storage_sweep.bits = 6;
    nodes = 32;
    keys = 8;
    reads = 16;
    zipf_s = 0.8;
    rs = [ 1; 2 ];
    rq_spec = "majority";
    wq_spec = "majority";
    mode = Experiments.Storage_sweep.Static { qs = [ 0.2; 0.5 ]; trials = 2 };
    seed = 606;
  }

let sweep_geometries = [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ]

let sweep_csv cfg points = List.map (Experiments.Storage_sweep.to_csv_row cfg) points

let test_sweep_validate_guards () =
  rejects "bad quorum spec" (fun () ->
      Experiments.Storage_sweep.validate
        { sweep_config with Experiments.Storage_sweep.rq_spec = "most" });
  rejects "quorum too large for r" (fun () ->
      Experiments.Storage_sweep.validate
        { sweep_config with Experiments.Storage_sweep.rq_spec = "4" });
  rejects "empty axis" (fun () ->
      Experiments.Storage_sweep.validate
        {
          sweep_config with
          Experiments.Storage_sweep.mode = Static { qs = []; trials = 2 };
        })

let test_sweep_deterministic_across_pools () =
  let sequential =
    Experiments.Storage_sweep.run ~geometries:sweep_geometries sweep_config
  in
  let parallel =
    Exec.Pool.with_pool ~domains:3 (fun pool ->
        Experiments.Storage_sweep.run ~pool ~geometries:sweep_geometries sweep_config)
  in
  Alcotest.(check (list string)) "byte-identical rows"
    (sweep_csv sweep_config sequential)
    (sweep_csv sweep_config parallel)

let test_sweep_checkpoint_replay () =
  let path = Filename.temp_file "dht_rcm_storage" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let checkpoint = Sim.Checkpoint.create ~path () in
      let first =
        Experiments.Storage_sweep.run ~geometries:sweep_geometries ~checkpoint
          sweep_config
      in
      Alcotest.(check int) "all points stored" (List.length first)
        (Sim.Checkpoint.length checkpoint);
      (* Resume under an always-fail fault plan: success requires every
         point to replay from the checkpoint without executing. *)
      let resumed = Sim.Checkpoint.load ~path () in
      let fault = { Exec.Fault.p = 1.0; seed = 5; attempts = max_int } in
      let second =
        Experiments.Storage_sweep.run ~geometries:sweep_geometries
          ~checkpoint:resumed ~fault sweep_config
      in
      Alcotest.(check (list string)) "replayed rows identical"
        (sweep_csv sweep_config first)
        (sweep_csv sweep_config second))

let test_sweep_analytic_column () =
  let points =
    Experiments.Storage_sweep.run ~geometries:[ Rcm.Geometry.Ring ] sweep_config
  in
  List.iter
    (fun p ->
      check_close
        ~msg:
          (Printf.sprintf "r=%d q=%g" p.Experiments.Storage_sweep.r
             p.Experiments.Storage_sweep.axis)
        (Rcm.Data_availability.replica_survival ~q:p.Experiments.Storage_sweep.axis
           ~r:p.Experiments.Storage_sweep.r ~quorum:p.Experiments.Storage_sweep.rq)
        p.Experiments.Storage_sweep.analytic)
    points

let test_sweep_no_quorum_surfaced () =
  (* A q = 1 point attempts nothing: availability must come out as nan
     and render as null in JSON, never as a fabricated 0. *)
  let cfg =
    {
      sweep_config with
      Experiments.Storage_sweep.rs = [ 1 ];
      mode = Static { qs = [ 1.0 ]; trials = 1 };
    }
  in
  match Experiments.Storage_sweep.run ~geometries:[ Rcm.Geometry.Ring ] cfg with
  | [ p ] ->
      Alcotest.(check int) "nothing attempted" 0 p.Experiments.Storage_sweep.attempted;
      Alcotest.(check bool) "availability is nan" true
        (Float.is_nan p.Experiments.Storage_sweep.availability);
      Alcotest.(check bool) "json renders null" true
        (Astring_contains.contains
           (Experiments.Storage_sweep.to_json cfg p)
           "\"availability\": null")
  | points -> Alcotest.failf "expected one point, got %d" (List.length points)

let test_sweep_matches_leslie_within_wilson () =
  (* The acceptance criterion: measured replica survival on the ring at
     bits = 10 sits inside the 95% Wilson interval around Leslie's
     closed form, for R in {1, 2, 4}. keys * trials = 512 Bernoulli
     samples per point. *)
  let cfg =
    {
      Experiments.Storage_sweep.bits = 10;
      nodes = 512;
      keys = 64;
      reads = 8;
      zipf_s = 0.8;
      rs = [ 1; 2; 4 ];
      rq_spec = "one";
      wq_spec = "one";
      mode = Experiments.Storage_sweep.Static { qs = [ 0.3 ]; trials = 8 };
      seed = 1117;
    }
  in
  let points = Experiments.Storage_sweep.run ~geometries:[ Rcm.Geometry.Ring ] cfg in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      let samples = cfg.Experiments.Storage_sweep.keys * 8 in
      let successes =
        int_of_float ((p.Experiments.Storage_sweep.survival *. float_of_int samples) +. 0.5)
      in
      let ci = Stats.Binomial_ci.wilson ~successes ~trials:samples () in
      let analytic = p.Experiments.Storage_sweep.analytic in
      Alcotest.(check bool)
        (Fmt.str "R=%d: %a contains %.4f" p.Experiments.Storage_sweep.r
           Stats.Binomial_ci.pp ci analytic)
        true
        (Stats.Binomial_ci.contains ci analytic))
    points

let test_sweep_churn_mode_runs () =
  let cfg =
    {
      sweep_config with
      Experiments.Storage_sweep.rs = [ 2 ];
      mode =
        Experiments.Storage_sweep.Churn
          {
            session_means = [ 2.0; 8.0 ];
            session_shape = Sim.Lifetime.Exponential;
            gap_mean = 2.0;
            gap_shape = Sim.Lifetime.Exponential;
            warmup = 4.0;
            measurements = 2;
            spacing = 2.0;
          };
    }
  in
  let points = Experiments.Storage_sweep.run ~geometries:[ Rcm.Geometry.Ring ] cfg in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "events processed" true
        (p.Experiments.Storage_sweep.events > 0);
      Alcotest.(check bool) "churn rate recorded" true
        (p.Experiments.Storage_sweep.churn_rate > 0.0))
    points

(* --- Checkpoint storage records ----------------------------------------------- *)

let test_checkpoint_storage_round_trip () =
  let path = Filename.temp_file "dht_rcm_storage_rt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cfg =
        {
          sweep_config with
          Experiments.Storage_sweep.mode = Static { qs = [ 0.3 ]; trials = 2 };
        }
      in
      let codec = Experiments.Storage_sweep.codec cfg in
      let coords = (Rcm.Geometry.Ring, Storage.Quorum.make ~r:2 ~rq:2 ~wq:1, 0.3) in
      let point =
        {
          Experiments.Storage_sweep.geometry = Rcm.Geometry.Ring;
          r = 2;
          rq = 2;
          wq = 1;
          axis = 0.3;
          churn_rate = Float.nan;
          attempted = 32;
          quorum_reads = 28;
          degraded_reads = 3;
          failed_reads = 1;
          no_client = 0;
          availability = 0.875;
          survival = 0.9375;
          analytic = 0.91;
          mean_alive = 0.703125;
          probe_routes = 57;
          repair_routes = 4;
          repair_transfers = 3;
          load_max = 9;
          load_mean = 1.78125;
          load_p99 = 7;
          events = 0;
        }
      in
      (* A dead point: nothing attempted, nan availability — the nan
         must survive the round trip (stored as an absent field). *)
      let dead =
        {
          point with
          Experiments.Storage_sweep.attempted = 0;
          availability = Float.nan;
          quorum_reads = 0;
          no_client = 32;
        }
      in
      let store = Sim.Checkpoint.create ~path () in
      let record seed p =
        Sim.Checkpoint.record_point store ~kind:codec.kind ~key:(codec.key coords ~seed)
          (codec.encode p)
      in
      record 1 point;
      record 2 dead;
      Sim.Checkpoint.flush store;
      let loaded = Sim.Checkpoint.load ~path () in
      Alcotest.(check int) "two records" 2 (Sim.Checkpoint.length loaded);
      let find seed =
        Sim.Checkpoint.find_point loaded ~kind:codec.kind ~key:(codec.key coords ~seed)
          ~decode:(codec.decode coords)
      in
      (match find 1 with
      | Some p ->
          Alcotest.(check bool) "exact round trip" true
            (codec.encode p = codec.encode point
            && p.geometry = Rcm.Geometry.Ring
            && (p.r, p.rq, p.wq, p.axis) = (2, 2, 1, 0.3))
      | None -> Alcotest.fail "stored point not found");
      match find 2 with
      | Some p ->
          Alcotest.(check bool) "nan restored" true (Float.is_nan p.availability);
          Alcotest.(check int) "counts restored" 32 p.no_client
      | None -> Alcotest.fail "dead point not found")

(* --- batched reads = the Store.read loop ------------------------------------ *)

let storage_counters () =
  List.filter
    (fun (name, _) -> String.length name > 8 && String.sub name 0 8 = "storage/")
    (Obs.Metrics.snapshot ()).Obs.Metrics.counters

(* [f ()] with metrics on, once through the C read loop and once
   through the Store.read loop ([Route_batch] off): each result with
   the storage/* counters it left. *)
let on_both_read_paths f =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled;
      Routing.Route_batch.set_enabled true)
    (fun () ->
      Obs.Metrics.set_enabled true;
      let run batch =
        Routing.Route_batch.set_enabled batch;
        Obs.Metrics.reset ();
        let result = f () in
        (result, storage_counters ())
      in
      let batched = run true in
      (batched, run false))

let check_read_paths case f =
  let (batched, batched_counters), (looped, looped_counters) = on_both_read_paths f in
  Alcotest.(check bool) (case ^ ": results equal") true (batched = looped);
  Alcotest.(check (list (pair string int)))
    (case ^ ": storage counters") looped_counters batched_counters;
  Alcotest.(check bool) (case ^ ": counters present") true (batched_counters <> [])

let record4 = Rcm.Geometry.Record { h = 4 }

(* Ring, tree, xor and Symphony read in C; record:h=4 has no C walk,
   so it reads through Store.read on both paths. *)
let read_geometries =
  [ Rcm.Geometry.Ring; Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.default_symphony;
    record4 ]

let test_record_reads_in_ocaml () =
  Alcotest.(check int) "record:h=4 has no C walk" (-1)
    (Routing.Sparse_router.walk_kind (build ~bits:8 record4))

let test_batched_failure_sim_matches_read_loop () =
  List.iter
    (fun geometry ->
      List.iter
        (fun r ->
          List.iter
            (fun q ->
              let cfg =
                { (failure_config ~keys:16 ~reads:96 ~r ~rq:((r / 2) + 1) ()) with
                  bits = 8; nodes = 100 }
              in
              check_read_paths
                (Printf.sprintf "%s r=%d q=%g" (Rcm.Geometry.slug geometry) r q)
                (fun () -> Storage.Failure_sim.run geometry cfg ~q ~seed:77))
            [ 0.; 0.3; 0.9 ])
        [ 1; 2; 4 ])
    read_geometries

let test_batched_churn_sim_matches_read_loop () =
  List.iter
    (fun geometry ->
      List.iter
        (fun r ->
          List.iter
            (fun session_mean ->
              let cfg =
                { (churn_config ~session_mean ()) with
                  bits = 8; nodes = 100; quorum = Storage.Quorum.majority ~r }
              in
              check_read_paths
                (Printf.sprintf "%s r=%d session %g" (Rcm.Geometry.slug geometry) r session_mean)
                (fun () -> Storage.Churn_sim.run geometry cfg ~seed:78))
            [ 1e6; 8.; 0.25 ])
        [ 1; 2; 4 ])
    read_geometries

(* Every read comes from the one survivor, a holder of key 0: its own
   copy answers locally, every other probe finds a dead holder, and
   each repair's candidates are dead too. *)
let test_batched_reads_one_survivor () =
  List.iter
    (fun geometry ->
      List.iter
        (fun r ->
          check_read_paths
            (Printf.sprintf "%s r=%d, one survivor" (Rcm.Geometry.slug geometry) r)
            (fun () ->
              let _, store = mk_store ~nodes:100 ~keys:16 ~r ~rq:1 geometry in
              let survivor = (Storage.Store.initial_holders store 0).(0) in
              let alive = Helpers.mask_of_bools (Array.init 100 (( = ) survivor)) in
              let rng = Prng.Splitmix.create ~seed:5 in
              let tally = Storage.Store.tally () in
              Storage.Store.read_batch store ~rng ~rank:(Overlay.Rank.create alive) tally 200;
              ( tally,
                Storage.Store.loads store,
                Array.init 16 (Storage.Store.holders store),
                Prng.Splitmix.state rng )))
        [ 1; 2; 4 ])
    read_geometries

let test_read_batch_guards () =
  let _, store = mk_store Rcm.Geometry.Ring in
  let rng = Prng.Splitmix.create ~seed:1 and tally = Storage.Store.tally () in
  let read_over nodes count () =
    Storage.Store.read_batch store ~rng ~rank:(Overlay.Rank.create (Overlay.Failure.none nodes))
      tally count
  in
  rejects "shorter mask" (read_over 63 1);
  rejects "longer mask" (read_over 65 1);
  rejects "negative count" (read_over 64 (-1));
  read_over 64 0 ();
  Alcotest.(check int) "nothing read" 0 tally.Storage.Store.attempted

let suite =
  [
    ("ring placement = successor list", `Quick, test_ring_placement_is_successor_list);
    xor_placement_matches_brute_force;
    ("placement prefix stable", `Quick, test_placement_prefix_stable);
    ("placement covers overlay once", `Quick, test_placement_distinct_and_whole_overlay);
    ("placement guards", `Quick, test_placement_guards);
    ("quorum make guards", `Quick, test_quorum_make_guards);
    ("quorum majority", `Quick, test_quorum_majority);
    ("quorum threshold parsing", `Quick, test_threshold_of_string);
    ("quorum classify", `Quick, test_quorum_classify);
    quorum_intersection;
    ("survival closed forms", `Quick, test_survival_closed_forms);
    ("survival edges", `Quick, test_survival_edges);
    survival_monotone;
    survival_is_probability;
    ("store guards", `Quick, test_store_guards);
    ("read at full health", `Quick, test_read_all_alive_reaches_quorum);
    ("read consumes one uniform", `Quick, test_read_consumes_one_uniform);
    ("read-repair replaces dead holder", `Quick, test_read_repair_replaces_dead_holder);
    ("repair protects later reads", `Quick, test_repaired_copy_serves_later_reads);
    ("failure sim deterministic", `Quick, test_failure_sim_deterministic);
    ("failure sim q=0", `Quick, test_failure_sim_no_failures);
    ("failure sim q=1 honest", `Quick, test_failure_sim_total_failure_honest);
    ("failure sim load accounting", `Quick, test_failure_sim_loads_accounted);
    ("failure sim registry geometries", `Slow, test_failure_sim_registry);
    ("churn sim deterministic", `Quick, test_churn_sim_deterministic);
    ("churn sim rates", `Quick, test_churn_sim_rates);
    ("churn sim no-churn limit", `Quick, test_churn_sim_no_churn_limit);
    ("churn sim processes events", `Quick, test_churn_sim_processes_events);
    ("sweep validate guards", `Quick, test_sweep_validate_guards);
    ("sweep deterministic across pools", `Quick, test_sweep_deterministic_across_pools);
    ("sweep checkpoint replay", `Quick, test_sweep_checkpoint_replay);
    ("sweep analytic column", `Quick, test_sweep_analytic_column);
    ("sweep no-quorum surfaced", `Quick, test_sweep_no_quorum_surfaced);
    ("sweep matches Leslie (Wilson CI)", `Slow, test_sweep_matches_leslie_within_wilson);
    ("sweep churn mode", `Quick, test_sweep_churn_mode_runs);
    ("checkpoint storage round trip", `Quick, test_checkpoint_storage_round_trip);
    ("record reads stay in OCaml", `Quick, test_record_reads_in_ocaml);
    ("batched failure sim = read loop", `Quick, test_batched_failure_sim_matches_read_loop);
    ("batched churn sim = read loop", `Quick, test_batched_churn_sim_matches_read_loop);
    ("batched reads, one survivor", `Quick, test_batched_reads_one_survivor);
    ("read_batch guards", `Quick, test_read_batch_guards);
  ]
