open Helpers

(* --- Event queue -------------------------------------------------------- *)

(* The earliest event as [Some (time, payload)], or [None] when empty. *)
let pop_event q =
  if Sim.Event_queue.is_empty q then None
  else begin
    let time = Sim.Event_queue.min_time q in
    Some (time, Sim.Event_queue.pop q)
  end

let test_queue_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:3.0 3;
  Sim.Event_queue.add q ~time:1.0 1;
  Sim.Event_queue.add q ~time:2.0 2;
  Alcotest.(check (option (pair (float 0.0) int))) "1" (Some (1.0, 1)) (pop_event q);
  Alcotest.(check (option (pair (float 0.0) int))) "2" (Some (2.0, 2)) (pop_event q);
  Alcotest.(check (option (pair (float 0.0) int))) "3" (Some (3.0, 3)) (pop_event q);
  Alcotest.(check bool) "empty" true (pop_event q = None);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Event_queue.pop: empty queue")
    (fun () -> ignore (Sim.Event_queue.pop q));
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
      ignore (Sim.Event_queue.min_time q))

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:1.0 10;
  Sim.Event_queue.add q ~time:1.0 20;
  Alcotest.(check (option (pair (float 0.0) int))) "fifo" (Some (1.0, 10)) (pop_event q);
  Alcotest.(check (option (pair (float 0.0) int))) "fifo2" (Some (1.0, 20)) (pop_event q)

let test_queue_interleaved () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:5.0 5;
  Sim.Event_queue.add q ~time:1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "1" (Some (1.0, 1)) (pop_event q);
  Sim.Event_queue.add q ~time:3.0 3;
  Sim.Event_queue.add q ~time:0.5 0;
  Alcotest.(check (option (pair (float 0.0) int))) "0" (Some (0.5, 0)) (pop_event q);
  Alcotest.(check (option (pair (float 0.0) int))) "3" (Some (3.0, 3)) (pop_event q);
  Alcotest.(check int) "one left" 1 (Sim.Event_queue.size q)

let test_queue_rejects_nan () =
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: nan time") (fun () ->
      Sim.Event_queue.add q ~time:nan 0)

let queue_pops_sorted =
  qcheck "queue pops in non-decreasing time order"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 100.0))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> Sim.Event_queue.add q ~time:t 0) times;
      let rec drain last =
        match pop_event q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let test_queue_shrinks_after_spike () =
  (* A queue that once held thousands of events must not pin a
     thousands-slot array forever: the heap halves when a quarter
     full. Measured via reachable words so the test does not depend on
     internals. *)
  let q = Sim.Event_queue.create () in
  for i = 1 to 4096 do
    Sim.Event_queue.add q ~time:(float_of_int i) i
  done;
  let at_peak = Obj.reachable_words (Obj.repr q) in
  for _ = 1 to 4090 do
    ignore (Sim.Event_queue.pop q)
  done;
  let drained = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check bool)
    (Printf.sprintf "heap shrank (%d words at peak, %d drained)" at_peak drained)
    true
    (drained * 16 < at_peak);
  (* Ordering survives the shrinks. *)
  let rec drain last =
    match pop_event q with
    | None -> ()
    | Some (t, _) ->
        Alcotest.(check bool) "still sorted" true (t >= last);
        drain t
  in
  drain neg_infinity

let queue_matches_sorted_reference =
  qcheck "queue equals stable sort by time (ties in insertion order)"
    QCheck2.Gen.(list_size (int_range 0 150) (int_range 0 9))
    (fun raw ->
      (* Coarse integer times force many ties, exercising the seq
         tie-break. *)
      let events = List.mapi (fun i t -> (float_of_int t, i)) raw in
      let q = Sim.Event_queue.create () in
      List.iter (fun (t, i) -> Sim.Event_queue.add q ~time:t i) events;
      let rec drain acc =
        match pop_event q with None -> List.rev acc | Some e -> drain (e :: acc)
      in
      let expected = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
      drain [] = expected)

let queue_interleaved_matches_model =
  qcheck "random add/pop interleavings match a sorted-list model"
    QCheck2.Gen.(list_size (int_range 0 200) (option (int_range 0 9)))
    (fun ops ->
      (* [Some t] adds an event at time t; [None] pops. The model is a
         sorted association list with stable insertion. *)
      let q = Sim.Event_queue.create () in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some t ->
              let time = float_of_int t in
              Sim.Event_queue.add q ~time !next;
              let rec insert = function
                | [] -> [ (time, !next) ]
                | (t', _) :: _ as rest when t' > time -> (time, !next) :: rest
                | e :: rest -> e :: insert rest
              in
              model := insert !model;
              incr next;
              true
          | None -> (
              let popped = pop_event q in
              match (popped, !model) with
              | None, [] -> true
              | Some e, m :: rest ->
                  model := rest;
                  e = m
              | None, _ :: _ | Some _, [] -> false))
        ops
      && Sim.Event_queue.size q = List.length !model)

(* One-shot events, periodic ticks and pops on a 0.25 grid with a 0.5
   interval, so ticks tie with ticks, with one-shot events and with
   their own re-arms. The model is the sorted list again; a popped tick
   goes back in at its time plus the interval with the next sequence
   number, as a caller re-adding it right after the pop would. Ticks
   added late or far apart exercise the lane's re-sort. *)
type lane_op = One_shot of int | Tick of int | Pop

let interval = 0.5

let periodic_lane_matches_model =
  qcheck "periodic lane + heap match a sorted-list model"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [
             (2, map (fun t -> One_shot t) (int_range 0 12));
             (2, map (fun t -> Tick t) (int_range 0 12));
             (5, pure Pop);
           ]))
    (fun ops ->
      let q = Sim.Event_queue.create ~interval () in
      (* Model entries: (time, payload, periodic) in pop order; a new
         entry has the largest sequence number, so it goes after every
         entry at its time. *)
      let model = ref [] in
      let insert time payload periodic =
        let rec go = function
          | [] -> [ (time, payload, periodic) ]
          | ((t', _, _) :: _ as rest) when t' > time -> (time, payload, periodic) :: rest
          | x :: rest -> x :: go rest
        in
        model := go !model
      in
      let payload = ref 0 in
      let add push t periodic =
        let time = 0.25 *. float_of_int t in
        incr payload;
        push ~time !payload;
        insert time !payload periodic;
        true
      in
      List.for_all
        (function
          | One_shot t -> add (Sim.Event_queue.add q) t false
          | Tick t -> add (Sim.Event_queue.add_periodic q) t true
          | Pop -> (
              match (pop_event q, !model) with
              | None, [] -> true
              | Some (time, p), (time', p', periodic) :: rest ->
                  model := rest;
                  if periodic then insert (time' +. interval) p' true;
                  time = time' && p = p'
              | None, _ :: _ | Some _, [] -> false))
        ops
      && Sim.Event_queue.size q = List.length !model)

let test_queue_rejects_bad_interval () =
  List.iter
    (fun interval ->
      Alcotest.check_raises (Printf.sprintf "interval %g" interval)
        (Invalid_argument "Event_queue.create: interval must be positive and finite")
        (fun () -> ignore (Sim.Event_queue.create ~interval ())))
    [ 0.0; -0.0; -1.0; nan; infinity; neg_infinity ];
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "no lane" (Invalid_argument "Event_queue.add_periodic: no interval")
    (fun () -> Sim.Event_queue.add_periodic q ~time:0.0 0);
  let q = Sim.Event_queue.create ~interval:1.0 () in
  Alcotest.check_raises "nan tick" (Invalid_argument "Event_queue.add_periodic: nan time")
    (fun () -> Sim.Event_queue.add_periodic q ~time:nan 0)

(* --- Lifetime distributions ------------------------------------------------- *)

let test_lifetime_of_string () =
  let shape s =
    match Sim.Lifetime.of_string s with
    | Ok shape -> shape
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  Alcotest.(check bool) "exp" true (shape "exp" = Sim.Lifetime.Exponential);
  Alcotest.(check bool) "exponential" true (shape "exponential" = Sim.Lifetime.Exponential);
  (match shape "pareto:1.5" with
  | Sim.Lifetime.Pareto alpha -> check_close 1.5 alpha
  | _ -> Alcotest.fail "expected Pareto");
  (match shape "weibull:0.5" with
  | Sim.Lifetime.Weibull k -> check_close 0.5 k
  | _ -> Alcotest.fail "expected Weibull");
  List.iter
    (fun bad ->
      match Sim.Lifetime.of_string bad with
      | Ok _ -> Alcotest.failf "%s should be rejected" bad
      | Error _ -> ())
    [
      "gaussian"; "pareto:1.0"; "pareto:x"; "weibull:0"; "weibull:"; "";
      (* Shape parameters must be finite: pareto:inf makes every draw
         nan, weibull:inf makes every session exactly its mean. *)
      "pareto:inf"; "pareto:nan"; "weibull:inf"; "weibull:nan";
    ]

let lifetime_shape_round_trips =
  (* Any finite double above the bound: a uniform range for ordinary
     parameters, raw bit patterns for the rest (huge, tiny, subnormal,
     ones that need all 17 digits). *)
  let above lo =
    QCheck2.Gen.(
      oneof
        [
          float_range (Float.succ lo) 1e3;
          map
            (fun bits ->
              let x = Float.abs (Int64.float_of_bits bits) in
              if Float.is_finite x && x > lo then x else Float.succ lo)
            int64;
        ])
  in
  qcheck "lifetime shape_to_string round-trips bit for bit"
    QCheck2.Gen.(
      oneof
        [
          map (fun a -> Sim.Lifetime.Pareto a) (above 1.0);
          map (fun k -> Sim.Lifetime.Weibull k) (above 0.0);
        ])
    (fun shape ->
      match (shape, Sim.Lifetime.of_string (Sim.Lifetime.shape_to_string shape)) with
      | Sim.Lifetime.Pareto a, Ok (Sim.Lifetime.Pareto b)
      | Sim.Lifetime.Weibull a, Ok (Sim.Lifetime.Weibull b) ->
          Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      | _ -> false)

let test_lifetime_guards () =
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Sim.Lifetime.exponential ~mean:0.0);
      (fun () -> Sim.Lifetime.exponential ~mean:nan);
      (fun () -> Sim.Lifetime.exponential ~mean:infinity);
      (fun () -> Sim.Lifetime.pareto ~alpha:1.0 ~mean:5.0);
      (fun () -> Sim.Lifetime.pareto ~alpha:nan ~mean:5.0);
      (fun () -> Sim.Lifetime.pareto ~alpha:infinity ~mean:5.0);
      (fun () -> Sim.Lifetime.weibull ~shape:0.0 ~mean:5.0);
      (fun () -> Sim.Lifetime.weibull ~shape:nan ~mean:5.0);
      (fun () -> Sim.Lifetime.weibull ~shape:infinity ~mean:5.0);
    ]

let test_lifetime_sample_means () =
  (* Inverse-CDF draws must average to the requested mean for every
     shape — this is what makes sweeps comparable across shapes. *)
  let sample_mean t =
    let rng = rng_of_seed 99 in
    let n = 60_000 in
    let acc = ref 0.0 in
    for _ = 1 to n do
      let x = Sim.Lifetime.draw t rng in
      Alcotest.(check bool) "positive" true (x > 0.0);
      acc := !acc +. x
    done;
    !acc /. float_of_int n
  in
  let check_mean ~tol t =
    let m = sample_mean t in
    Alcotest.(check bool)
      (Printf.sprintf "sample mean %.3f ~ %.3f" m (Sim.Lifetime.mean t))
      true
      (Float.abs (m -. Sim.Lifetime.mean t) < tol)
  in
  check_mean ~tol:0.15 (Sim.Lifetime.exponential ~mean:4.0);
  (* Pareto at alpha 2.5 has heavy tails: generous tolerance. *)
  check_mean ~tol:0.5 (Sim.Lifetime.pareto ~alpha:2.5 ~mean:4.0);
  check_mean ~tol:0.3 (Sim.Lifetime.weibull ~shape:0.7 ~mean:4.0)

(* --- Churn with redraw repair (E8's settings) ---------------------------------- *)

(* E8's repair-process settings: exponential sessions of mean 8, dead
   entries redrawn at every maintenance tick. The paper's one-contact
   xor table runs as record:h=2, whose churn engine redraws dead
   entries (xor itself runs Kademlia k-buckets instead). *)
let record_h2 = Rcm.Geometry.Record { h = 2 }

let repair_config ?(geometry = record_h2) ?(mean_downtime = 2.0) ?(repair_interval = 1.0) () =
  Sim.Session_churn.config ~bits:8
    ~session:(Sim.Lifetime.exponential ~mean:8.0)
    ~gap:(Sim.Lifetime.exponential ~mean:mean_downtime)
    ~maintenance_interval:repair_interval ~warmup:15.0 ~measurements:3
    ~measurement_spacing:2.0 ~pairs_per_measurement:400 ~seed:13 geometry

let down_fraction cfg = 1.0 -. Sim.Session_churn.expected_availability cfg

(* Each thunk builds one bad config; every one must be rejected. *)
let check_rejected cases =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " rejected") true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    cases

let test_churn_config_guards () =
  (* Session_churn.config and Storage.Churn_sim.validate share one
     schedule check: each bad schedule is rejected by both. *)
  let storage =
    {
      Storage.Churn_sim.bits = 7;
      nodes = 64;
      keys = 8;
      reads = 32;
      zipf_s = 0.8;
      quorum = Storage.Quorum.make ~r:3 ~rq:2 ~wq:2;
      session = Sim.Lifetime.exponential ~mean:8.0;
      gap = Sim.Lifetime.exponential ~mean:2.0;
      warmup = 15.0;
      measurements = 3;
      spacing = 2.0;
    }
  in
  Storage.Churn_sim.validate storage;
  List.iter
    (fun (name, warmup, measurements, spacing) ->
      check_rejected
        [
          ( name ^ " (session)",
            fun () ->
              ignore
                (Sim.Session_churn.config ~warmup ~measurements
                   ~measurement_spacing:spacing Rcm.Geometry.Xor) );
          ( name ^ " (storage)",
            fun () -> Storage.Churn_sim.validate { storage with warmup; measurements; spacing } );
        ])
    [
      ("no measurements", 15.0, 0, 2.0);
      ("negative warmup", -1.0, 3, 2.0);
      ("nan warmup", nan, 3, 2.0);
      ("infinite warmup", infinity, 3, 2.0);
      ("zero spacing", 15.0, 3, 0.0);
      ("nan spacing", 15.0, 3, nan);
      ("infinite spacing", 15.0, 3, infinity);
    ]

let test_churn_repair_helps_xor () =
  (* Faster repair -> fewer stale entries -> higher routability. *)
  let slow = Sim.Session_churn.run (repair_config ~repair_interval:4.0 ()) in
  let fast = Sim.Session_churn.run (repair_config ~repair_interval:0.25 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "stale %.4f < %.4f" fast.Sim.Session_churn.mean_stale
       slow.Sim.Session_churn.mean_stale)
    true
    (fast.Sim.Session_churn.mean_stale < slow.Sim.Session_churn.mean_stale);
  Alcotest.(check bool)
    (Printf.sprintf "routability %.4f >= %.4f" fast.Sim.Session_churn.mean_routability
       slow.Sim.Session_churn.mean_routability)
    true
    (fast.Sim.Session_churn.mean_routability
    >= slow.Sim.Session_churn.mean_routability -. 0.01)

let test_churn_ring_repair_noop () =
  (* Ring fingers and tree/hypercube bit-links are deterministic, so no
     maintenance is scheduled and the repair interval cannot change a
     single draw. *)
  List.iter
    (fun geometry ->
      let run repair_interval =
        Sim.Session_churn.run (repair_config ~geometry ~repair_interval ())
      in
      let a = run 0.25 and b = run 4.0 in
      let slug = Rcm.Geometry.slug geometry in
      Alcotest.(check bool) (slug ^ ": identical measurement lists") true
        (a.Sim.Session_churn.measurements = b.Sim.Session_churn.measurements);
      Alcotest.(check int) (slug ^ ": identical event counts")
        a.Sim.Session_churn.events_processed b.Sim.Session_churn.events_processed)
    [ Rcm.Geometry.Ring; Rcm.Geometry.Tree; Rcm.Geometry.Hypercube ]

let test_churn_ring_stale_equals_down () =
  (* Unrepairable entries are stale exactly when their target is down:
     stale fraction ~ down fraction. *)
  let cfg = repair_config ~geometry:Rcm.Geometry.Ring () in
  let report = Sim.Session_churn.run cfg in
  let down = down_fraction cfg in
  Alcotest.(check bool)
    (Printf.sprintf "stale %.3f ~ down %.3f" report.Sim.Session_churn.mean_stale down)
    true
    (Float.abs (report.Sim.Session_churn.mean_stale -. down) < 0.05)

let test_churn_more_churn_hurts () =
  let calm = Sim.Session_churn.run (repair_config ~mean_downtime:0.5 ()) in
  let stormy = Sim.Session_churn.run (repair_config ~mean_downtime:6.0 ()) in
  Alcotest.(check bool) "routability drops" true
    (stormy.Sim.Session_churn.mean_routability < calm.Sim.Session_churn.mean_routability)

let test_churn_bridge_accuracy_xor () =
  (* The static simulation at q = stale fraction predicts churn
     routability to a few points for the xor table (EXPERIMENTS.md E8). *)
  let cfg =
    { Experiments.Churn_bridge.default_config with
      bits = 8; mean_downtimes = [ 2.0 ]; repair_intervals = [ 1.0 ]; pairs = 600 }
  in
  let rows = Experiments.Churn_bridge.run ~geometries:[ record_h2 ] cfg in
  List.iter
    (fun row ->
      let err = Experiments.Churn_bridge.bridge_error row in
      Alcotest.(check bool) (Printf.sprintf "bridge error %.4f < 0.05" err) true (err < 0.05))
    rows

let test_churn_symphony_class_staleness () =
  (* Symphony's near links cannot be repaired in place, so their stale
     fraction approaches the down fraction, while repaired shortcuts
     stay fresher. *)
  let cfg = repair_config ~geometry:Rcm.Geometry.default_symphony ~repair_interval:0.5 () in
  let report = Sim.Session_churn.run cfg in
  let near = ref 0.0 and shortcut = ref 0.0 and count = ref 0 in
  List.iter
    (fun m ->
      near := !near +. m.Sim.Session_churn.stale_near;
      shortcut := !shortcut +. m.Sim.Session_churn.stale_shortcut;
      incr count)
    report.Sim.Session_churn.measurements;
  let near = !near /. float_of_int !count in
  let shortcut = !shortcut /. float_of_int !count in
  Alcotest.(check bool)
    (Printf.sprintf "near %.3f > shortcut %.3f" near shortcut)
    true (near > shortcut);
  let down = down_fraction cfg in
  Alcotest.(check bool)
    (Printf.sprintf "near %.3f ~ down %.3f" near down)
    true
    (Float.abs (near -. down) < 0.07)

let test_churn_bridge_golden () =
  (* The whole default E8 table, byte for byte: a change of draw or
     event order in the churn engine or the static estimator fails
     here. Regenerate only for a deliberate change of output. *)
  let file = Filename.concat "golden" "churn-bridge-default.txt" in
  let golden = In_channel.with_open_bin file In_channel.input_all in
  let rows =
    Experiments.Churn_bridge.run
      ~geometries:[ record_h2; Rcm.Geometry.Ring; Rcm.Geometry.default_symphony ]
      Experiments.Churn_bridge.default_config
  in
  Alcotest.(check string) ("matches " ^ file) golden
    (Fmt.str "%a" Experiments.Churn_bridge.pp_rows rows)

(* --- Session-churn engine --------------------------------------------------- *)

let session_config ?(geometry = Rcm.Geometry.Xor) ?(session_mean = 8.0) ?(gap_mean = 2.0)
    ?(maintenance_interval = 1.0) ?(seed = 31) () =
  Sim.Session_churn.config ~bits:8
    ~session:(Sim.Lifetime.exponential ~mean:session_mean)
    ~gap:(Sim.Lifetime.exponential ~mean:gap_mean)
    ~maintenance_interval ~k:4 ~cache_k:4 ~warmup:15.0 ~measurements:3
    ~measurement_spacing:2.0 ~pairs_per_measurement:300 ~seed geometry

let test_session_config_guards () =
  let xor = Rcm.Geometry.Xor in
  check_rejected
    [
      ("k = 0", fun () -> Sim.Session_churn.config ~k:0 xor);
      ("negative cache", fun () -> Sim.Session_churn.config ~cache_k:(-1) xor);
      ("zero maintenance", fun () -> Sim.Session_churn.config ~maintenance_interval:0.0 xor);
      ("nan maintenance", fun () -> Sim.Session_churn.config ~maintenance_interval:nan xor);
      ( "infinite maintenance",
        fun () -> Sim.Session_churn.config ~maintenance_interval:infinity xor );
      ("zero pairs", fun () -> Sim.Session_churn.config ~pairs_per_measurement:0 xor);
      ("zero bits", fun () -> Sim.Session_churn.config ~bits:0 xor);
    ]

let test_session_rates () =
  let cfg = session_config ~session_mean:8.0 ~gap_mean:2.0 () in
  check_close 0.1 (Sim.Session_churn.churn_rate cfg);
  check_close 0.8 (Sim.Session_churn.expected_availability cfg)

let test_session_reproducible () =
  let a = Sim.Session_churn.run (session_config ()) in
  let b = Sim.Session_churn.run (session_config ()) in
  (* The engine is one sequential PRNG stream: bit-identical, not just
     statistically close. *)
  Alcotest.(check bool) "identical measurement lists" true
    (a.Sim.Session_churn.measurements = b.Sim.Session_churn.measurements);
  Alcotest.(check int) "identical event counts" a.Sim.Session_churn.events_processed
    b.Sim.Session_churn.events_processed

let test_session_all_geometries () =
  List.iter
    (fun geometry ->
      let report = Sim.Session_churn.run (session_config ~geometry ()) in
      Alcotest.(check int) "measurement count" 3
        (List.length report.Sim.Session_churn.measurements);
      Alcotest.(check bool) "events processed" true
        (report.Sim.Session_churn.events_processed > 0);
      List.iter
        (fun m ->
          check_in_unit ~msg:"alive" m.Sim.Session_churn.alive_fraction;
          check_in_unit ~msg:"stale" m.Sim.Session_churn.stale_fraction;
          check_in_unit ~msg:"prediction" m.Sim.Session_churn.static_prediction;
          match m.Sim.Session_churn.routability with
          | Some r -> check_in_unit ~msg:"routability" r
          | None -> ())
        report.Sim.Session_churn.measurements)
    (* Every geometry must survive the engine. *)
    Rcm.Geometry.all

let test_session_alive_tracks_availability () =
  let report = Sim.Session_churn.run (session_config ~geometry:Rcm.Geometry.Ring ()) in
  Alcotest.(check bool)
    (Printf.sprintf "alive %.3f ~ availability 0.8" report.Sim.Session_churn.mean_alive)
    true
    (Float.abs (report.Sim.Session_churn.mean_alive -. 0.8) < 0.06)

let test_session_no_churn_limit () =
  (* Sessions dwarf the horizon: nobody leaves, tables stay perfect. *)
  let report =
    Sim.Session_churn.run
      (session_config ~geometry:Rcm.Geometry.Ring ~session_mean:1e9 ~gap_mean:1e-3 ())
  in
  check_close 1.0 report.Sim.Session_churn.mean_alive;
  check_close 0.0 report.Sim.Session_churn.mean_stale;
  check_close 1.0 report.Sim.Session_churn.mean_routability;
  Alcotest.(check int) "no pairless measurements" 0
    report.Sim.Session_churn.no_pair_measurements

let test_session_maintenance_heals_xor () =
  (* Kademlia maintenance is the point of the engine: frequent
     ping-before-evict plus cache promotion must leave fewer stale
     slots than a table that is never maintained. *)
  let stale interval =
    (Sim.Session_churn.run (session_config ~maintenance_interval:interval ()))
      .Sim.Session_churn.mean_stale
  in
  let maintained = stale 1.0 in
  let neglected = stale 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "maintained %.3f < neglected %.3f" maintained neglected)
    true
    (maintained < neglected -. 0.02)

let test_session_no_pair_measurements () =
  let report =
    Sim.Session_churn.run
      (session_config ~geometry:Rcm.Geometry.Ring ~session_mean:1e-4 ~gap_mean:1e7 ())
  in
  Alcotest.(check int) "all pairless" 3 report.Sim.Session_churn.no_pair_measurements;
  List.iter
    (fun m -> Alcotest.(check bool) "no sample" true (m.Sim.Session_churn.routability = None))
    report.Sim.Session_churn.measurements;
  Alcotest.(check bool) "mean is nan" true
    (Float.is_nan report.Sim.Session_churn.mean_routability)

let test_session_xor_allocation () =
  (* The xor event path — heap, k-bucket rejoin and maintenance hooks,
     probe routes — keeps payloads unboxed and builds no closure or
     option per event; what remains per event is a few boxed floats.
     Bytecode boxes every float, so only native code is held to it. *)
  let before = Gc.minor_words () in
  let report = Sim.Session_churn.run (Sim.Session_churn.config ~bits:10 ~seed:5 Rcm.Geometry.Xor) in
  let words = Gc.minor_words () -. before in
  let events = report.Sim.Session_churn.events_processed in
  let per_event = words /. float_of_int events in
  if Sys.backend_type = Sys.Native then
    Alcotest.(check bool)
      (Printf.sprintf "%.1f minor words per event (at most 20)" per_event)
      true (per_event <= 20.0);
  Alcotest.(check bool) "events processed" true (events > 0)

(* --- Churn curves ----------------------------------------------------------- *)

let curves_config =
  {
    Experiments.Churn_curves.bits = 7;
    session_means = [ 2.0; 8.0 ];
    session_shape = Sim.Lifetime.Exponential;
    gap_mean = 2.0;
    gap_shape = Sim.Lifetime.Exponential;
    maintenance_interval = 1.0;
    k = 3;
    cache_k = 3;
    warmup = 10.0;
    measurements = 2;
    measurement_spacing = 2.0;
    pairs = 100;
    seed = 424;
  }

let curves_geometries = [ Rcm.Geometry.Xor; Rcm.Geometry.Ring ]

let csv_of_points points =
  List.map (Experiments.Churn_curves.to_csv_row curves_config) points

let test_curves_validate_up_front () =
  (* A bad config is one Invalid_argument from [run] before any point
     runs, not a point fault retried until the sweep fails. *)
  let bad =
    [
      ("k = 0", { curves_config with k = 0 });
      ("zero maintenance", { curves_config with maintenance_interval = 0.0 });
      ("nan session", { curves_config with session_means = [ 2.0; nan ] });
      ("nan warmup", { curves_config with warmup = nan });
      ("nan spacing", { curves_config with measurement_spacing = nan });
      ("empty sweep", { curves_config with session_means = [] });
    ]
  in
  List.iter
    (fun (name, cfg) ->
      check_rejected [ (name ^ " (validate)", fun () -> Experiments.Churn_curves.validate cfg) ];
      check_rejected
        [
          ( name ^ " (run)",
            fun () ->
              ignore
                (Experiments.Churn_curves.run ~geometries:curves_geometries ~retries:3 cfg) );
        ])
    bad;
  Experiments.Churn_curves.validate ~geometries:curves_geometries curves_config

let test_curves_deterministic_across_pools () =
  (* The --jobs guarantee at the library level: per-point seeds derive
     by index, so a 3-domain pool produces byte-identical rows. *)
  let sequential =
    Experiments.Churn_curves.run ~geometries:curves_geometries curves_config
  in
  let parallel =
    Exec.Pool.with_pool ~domains:3 (fun pool ->
        Experiments.Churn_curves.run ~pool ~geometries:curves_geometries curves_config)
  in
  Alcotest.(check (list string)) "byte-identical rows" (csv_of_points sequential)
    (csv_of_points parallel)

let test_curves_checkpoint_replay () =
  let path = Filename.temp_file "dht_rcm_churn" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let checkpoint = Sim.Checkpoint.create ~path () in
      let first =
        Experiments.Churn_curves.run ~geometries:curves_geometries ~checkpoint
          curves_config
      in
      Alcotest.(check int) "all points stored" (List.length first)
        (Sim.Checkpoint.length checkpoint);
      (* Resume against the written file under an always-fail fault
         plan: the run can only succeed if every point replays from the
         checkpoint without executing. *)
      let resumed = Sim.Checkpoint.load ~path () in
      let fault = { Exec.Fault.p = 1.0; seed = 5; attempts = max_int } in
      let second =
        Experiments.Churn_curves.run ~geometries:curves_geometries ~checkpoint:resumed
          ~fault curves_config
      in
      Alcotest.(check (list string)) "replayed rows identical" (csv_of_points first)
        (csv_of_points second))

let test_checkpoint_churn_round_trip () =
  let path = Filename.temp_file "dht_rcm_churn_rt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cfg =
        {
          curves_config with
          Experiments.Churn_curves.bits = 9;
          session_shape = Sim.Lifetime.Pareto 1.5;
          gap_mean = 2.0;
          maintenance_interval = 0.5;
          k = 4;
          cache_k = 2;
          warmup = 10.0;
          measurements = 3;
          measurement_spacing = 2.0;
          pairs = 200;
        }
      in
      let codec = Experiments.Churn_curves.codec cfg in
      let coords = (Rcm.Geometry.Xor, 4.0) in
      let point =
        {
          Experiments.Churn_curves.geometry = Rcm.Geometry.Xor;
          session_mean = 4.0;
          (* derived from the config on decode, not stored *)
          churn_rate = Float.nan;
          availability = Float.nan;
          mean_alive = 0.8125;
          mean_stale = 0.19921875;
          stale_near = 0.25;
          stale_shortcut = 0.125;
          routable_measurements = 3;
          mean_routability = 0.9765625;
          mean_prediction = 0.96875;
          no_pair_measurements = 0;
          events = 4242;
        }
      in
      (* A second point with no routability sample: the nan mean must
         survive the round trip (stored as an absent field). *)
      let pairless =
        {
          point with
          Experiments.Churn_curves.mean_routability = Float.nan;
          routable_measurements = 0;
          no_pair_measurements = 3;
        }
      in
      let seed = 0x1234_5678_9ABC in
      let store = Sim.Checkpoint.create ~path () in
      let record seed p =
        Sim.Checkpoint.record_point store ~kind:codec.kind ~key:(codec.key coords ~seed)
          (codec.encode p)
      in
      record seed point;
      record 77 pairless;
      Sim.Checkpoint.flush store;
      let loaded = Sim.Checkpoint.load ~path () in
      Alcotest.(check int) "two records" 2 (Sim.Checkpoint.length loaded);
      let find seed =
        Sim.Checkpoint.find_point loaded ~kind:codec.kind ~key:(codec.key coords ~seed)
          ~decode:(codec.decode coords)
      in
      (match find seed with
      | Some p ->
          Alcotest.(check bool) "exact round trip" true
            (codec.encode p = codec.encode point
            && p.geometry = Rcm.Geometry.Xor
            && p.session_mean = 4.0
            && Float.is_finite p.churn_rate)
      | None -> Alcotest.fail "stored point not found");
      match find 77 with
      | Some p ->
          Alcotest.(check bool) "nan restored" true (Float.is_nan p.mean_routability);
          Alcotest.(check int) "counts restored" 3 p.no_pair_measurements
      | None -> Alcotest.fail "pairless point not found")

let suite =
  [
    ("event queue ordering", `Quick, test_queue_ordering);
    ("event queue fifo ties", `Quick, test_queue_fifo_ties);
    ("event queue interleaved", `Quick, test_queue_interleaved);
    ("event queue rejects nan", `Quick, test_queue_rejects_nan);
    queue_pops_sorted;
    ("event queue shrinks after spike", `Quick, test_queue_shrinks_after_spike);
    queue_matches_sorted_reference;
    queue_interleaved_matches_model;
    ("lifetime parsing", `Quick, test_lifetime_of_string);
    ("lifetime guards", `Quick, test_lifetime_guards);
    lifetime_shape_round_trips;
    ("lifetime sample means", `Slow, test_lifetime_sample_means);
    ("churn config guards", `Quick, test_churn_config_guards);
    ("churn repair helps xor", `Quick, test_churn_repair_helps_xor);
    ("churn ring repair no-op", `Quick, test_churn_ring_repair_noop);
    ("churn ring stale = down fraction", `Quick, test_churn_ring_stale_equals_down);
    ("churn more churn hurts", `Quick, test_churn_more_churn_hurts);
    ("churn bridge accuracy (xor)", `Slow, test_churn_bridge_accuracy_xor);
    ("churn symphony per-class staleness", `Slow, test_churn_symphony_class_staleness);
    ("churn bridge golden", `Slow, test_churn_bridge_golden);
    ("session config guards", `Quick, test_session_config_guards);
    ("session churn/availability rates", `Quick, test_session_rates);
    ("session reproducible", `Quick, test_session_reproducible);
    ("session all geometries", `Slow, test_session_all_geometries);
    ("session alive tracks availability", `Quick, test_session_alive_tracks_availability);
    ("session no-churn limit", `Quick, test_session_no_churn_limit);
    ("session maintenance heals xor", `Slow, test_session_maintenance_heals_xor);
    ("session no-pair measurements", `Quick, test_session_no_pair_measurements);
    ("session xor churn allocates little", `Quick, test_session_xor_allocation);
    ("curves validate up front", `Quick, test_curves_validate_up_front);
    ("curves deterministic across pools", `Slow, test_curves_deterministic_across_pools);
    ("curves checkpoint replay", `Slow, test_curves_checkpoint_replay);
    ("checkpoint churn round trip", `Quick, test_checkpoint_churn_round_trip);
    periodic_lane_matches_model;
    ("event queue rejects a bad interval", `Quick, test_queue_rejects_bad_interval);
  ]
