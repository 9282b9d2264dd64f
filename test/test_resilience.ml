(* The fault-tolerance harness: supervised trials (capture + retry),
   deterministic fault injection, checkpoint/resume and cooperative
   cancellation. The recurring assertion is the strongest one the
   design makes: whatever faults, retries or interruptions happen on
   the way, the surviving numbers are bit-identical to an undisturbed
   run. *)

let check_float_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_estimate name (a : Sim.Estimate.result) (b : Sim.Estimate.result) =
  Alcotest.(check int) (name ^ ": delivered") a.Sim.Estimate.delivered b.Sim.Estimate.delivered;
  Alcotest.(check int) (name ^ ": attempted") a.Sim.Estimate.attempted b.Sim.Estimate.attempted;
  Alcotest.(check int) (name ^ ": failed_trials") a.Sim.Estimate.failed_trials
    b.Sim.Estimate.failed_trials;
  check_float_bits (name ^ ": mean_alive_fraction") a.Sim.Estimate.mean_alive_fraction
    b.Sim.Estimate.mean_alive_fraction;
  check_float_bits (name ^ ": routability") (Sim.Estimate.routability a)
    (Sim.Estimate.routability b);
  check_float_bits (name ^ ": hop mean")
    (Stats.Summary.mean a.Sim.Estimate.hop_summary)
    (Stats.Summary.mean b.Sim.Estimate.hop_summary);
  check_float_bits (name ^ ": hop variance")
    (Stats.Summary.variance a.Sim.Estimate.hop_summary)
    (Stats.Summary.variance b.Sim.Estimate.hop_summary)

let check_same_sweep name baseline sweep =
  Alcotest.(check int) (name ^ ": grid size") (List.length baseline) (List.length sweep);
  List.iter2
    (fun (q, expected) (q', got) ->
      check_float_bits (name ^ ": grid point") q q';
      check_same_estimate (Printf.sprintf "%s q=%g" name q) expected got)
    baseline sweep

let cfg =
  Sim.Estimate.config ~trials:4 ~pairs_per_trial:300 ~seed:11 ~bits:8 ~q:0.3
    Rcm.Geometry.Xor

let qs = [ 0.0; 0.2; 0.4 ]

let with_temp_file f =
  let path = Filename.temp_file "dht_rcm" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Exec.Fault ------------------------------------------------------------ *)

let test_fault_parse_roundtrip () =
  (match Exec.Fault.parse "trial:0.25:99" with
  | Ok t ->
      check_float_bits "p" 0.25 t.Exec.Fault.p;
      Alcotest.(check int) "seed" 99 t.Exec.Fault.seed;
      Alcotest.(check int) "attempts default" 1 t.Exec.Fault.attempts
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Exec.Fault.parse "trial:1:7:3" with
  | Ok t -> Alcotest.(check int) "attempts" 3 t.Exec.Fault.attempts
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Exec.Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "trial"; "trial:2:1"; "trial:-0.1:1"; "node:0.5:1"; "trial:0.5:x"; "trial:0.5:1:0" ]

let fault_fails fault ~task ~attempt =
  match Exec.Fault.inject (Some fault) ~task ~attempt with
  | () -> false
  | exception Exec.Fault.Injected _ -> true

let test_fault_deterministic_and_attempt_bounded () =
  match Exec.Fault.parse "trial:0.5:123:2" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      let hits = ref 0 in
      for task = 0 to 199 do
        let a = fault_fails t ~task ~attempt:1 in
        let b = fault_fails t ~task ~attempt:1 in
        Alcotest.(check bool) "pure function of (seed, task, attempt)" a b;
        (* Within the attempt budget the decision is per-task constant;
           past it the fault clears (transient). *)
        Alcotest.(check bool) "attempt 2 same as 1" a
          (fault_fails t ~task ~attempt:2);
        Alcotest.(check bool) "attempt 3 clears" false
          (fault_fails t ~task ~attempt:3);
        if a then incr hits
      done;
      (* p = 0.5 over 200 tasks: a degenerate plan (none or all faulted)
         would make every chaos test vacuous. *)
      Alcotest.(check bool) "plan is non-degenerate" true (!hits > 20 && !hits < 180)

(* --- Exec.Pool supervision ------------------------------------------------- *)

let test_supervised_retry_replays_bit_identically () =
  (* A task that fails on its first attempt and succeeds on the second
     must produce exactly the value of an undisturbed run: attempts
     re-derive everything from the task index. *)
  let value k = Printf.sprintf "task-%d" k in
  let task ~attempt k = if k mod 3 = 0 && attempt = 1 then failwith "transient" else value k in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let outcomes = Exec.Pool.map pool 10 (Exec.Pool.supervised ~retries:1 ~task) in
      Array.iteri
        (fun k outcome ->
          match outcome with
          | Exec.Pool.Done v -> Alcotest.(check string) "retried value" (value k) v
          | Exec.Pool.Failed { error; _ } -> Alcotest.failf "task %d failed: %s" k error
          | Exec.Pool.Cancelled -> Alcotest.failf "task %d cancelled" k)
        outcomes)

let test_supervised_exhausted_retries_fail () =
  let task ~attempt:_ k = if k = 2 then failwith "persistent" else k in
  let outcomes =
    Exec.Pool.with_pool ~domains:1 (fun pool ->
        Exec.Pool.map pool 4 (Exec.Pool.supervised ~retries:2 ~task))
  in
  (match outcomes.(2) with
  | Exec.Pool.Failed { attempts; error } ->
      Alcotest.(check int) "attempts = retries + 1" 3 attempts;
      Alcotest.(check bool) "error names the exception" true
        (Astring_contains.contains error "persistent")
  | Exec.Pool.Done _ | Exec.Pool.Cancelled -> Alcotest.fail "task 2 should have failed");
  List.iter
    (fun k ->
      match outcomes.(k) with
      | Exec.Pool.Done v -> Alcotest.(check int) "unaffected task" k v
      | _ -> Alcotest.failf "task %d should have succeeded" k)
    [ 0; 1; 3 ]

let test_supervised_cancellation_at_task_boundaries () =
  (* domains:1 runs tasks in index order on the caller: task 2 requests
     cancellation (and still completes); tasks after it never start. *)
  Fun.protect ~finally:Exec.Cancel.reset (fun () ->
      Exec.Cancel.reset ();
      let task ~attempt:_ k =
        if k = 2 then Exec.Cancel.request ();
        k
      in
      let outcomes =
        Exec.Pool.with_pool ~domains:1 (fun pool ->
            Exec.Pool.map pool 5 (Exec.Pool.supervised ~task))
      in
      let shape =
        Array.to_list outcomes
        |> List.map (function
             | Exec.Pool.Done _ -> "done"
             | Exec.Pool.Failed _ -> "failed"
             | Exec.Pool.Cancelled -> "cancelled")
      in
      Alcotest.(check (list string)) "boundary semantics"
        [ "done"; "done"; "done"; "cancelled"; "cancelled" ]
        shape)

let test_map_after_shutdown_raises () =
  let pool = Exec.Pool.with_pool ~domains:2 Fun.id in
  Alcotest.check_raises "map on a shut-down pool"
    (Invalid_argument "Exec.Pool.map: pool is shut down") (fun () ->
      ignore (Exec.Pool.map pool 4 Fun.id))

(* --- Sim.Checkpoint -------------------------------------------------------- *)

let sample_key trial =
  { Sim.Checkpoint.geometry = "xor"; bits = 8; q = 0.2; pairs = 300; seed = 11; trial }

let test_checkpoint_store_roundtrip () =
  with_temp_file (fun path ->
      let ck = Sim.Checkpoint.create ~interval:100 ~path () in
      let ok =
        Sim.Checkpoint.Trial
          { Sim.Checkpoint.delivered = 280; attempted = 300; alive_fraction = 0.8125;
            hop_counts = [| 0; 0; 0; 100; 120; 60 |] }
      in
      let failed =
        Sim.Checkpoint.Failed
          { attempts = 2; error = "bad \"quote\" and\nnewline" }
      in
      Sim.Checkpoint.record ck (sample_key 0) ok;
      Sim.Checkpoint.record ck (sample_key 1) failed;
      Sim.Checkpoint.flush ck;
      let reloaded = Sim.Checkpoint.load ~path () in
      Alcotest.(check int) "two entries" 2 (Sim.Checkpoint.length reloaded);
      Alcotest.(check bool) "trial round-trips" true
        (Sim.Checkpoint.find reloaded (sample_key 0) = Some ok);
      Alcotest.(check bool) "failure round-trips (escaped error)" true
        (Sim.Checkpoint.find reloaded (sample_key 1) = Some failed);
      (* Rewriting the reloaded store must reproduce the file byte for
         byte: entry order is canonical, floats are exact. *)
      let first = read_file path in
      Sim.Checkpoint.flush reloaded;
      Alcotest.(check string) "stable bytes across reload + rewrite" first (read_file path))

let test_checkpoint_missing_and_corrupt () =
  with_temp_file (fun path ->
      Sys.remove path;
      let ck = Sim.Checkpoint.load ~path () in
      Alcotest.(check int) "missing file = empty store" 0 (Sim.Checkpoint.length ck);
      let oc = open_out path in
      output_string oc "{\"v\": 1, \"kind\": \"dht_rcm-checkpoint\"}\nnot json at all\n";
      close_out oc;
      (match Sim.Checkpoint.load ~path () with
      | _ -> Alcotest.fail "corrupt checkpoint accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "error names the file and line" true
            (Astring_contains.contains msg path && Astring_contains.contains msg "line 2"));
      let oc = open_out path in
      output_string oc "{\"v\": 999, \"kind\": \"dht_rcm-checkpoint\"}\n";
      close_out oc;
      match Sim.Checkpoint.load ~path () with
      | _ -> Alcotest.fail "future version accepted"
      | exception Failure _ -> ())

(* Every record goes through one printer and one reader: random fields
   (-0.0, subnormals, max_float, integers at ±(2^53 - 1), strings with
   quotes, backslashes, control and high bytes) and random valid trial
   records (hop histograms empty or long, with large counts) must
   reload bit-equal and reprint to the same bytes. *)
type field_value = F of float | I of int | S of string

let max_exact = (1 lsl 53) - 1

let float_gen =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
          Float.max_float; -.Float.max_float; 0.1; 1.0 /. 3.0; 1e22; 123456789.0 ];
      map Int64.float_of_bits int64 |> map (fun f -> if Float.is_finite f then f else 0.5);
      float_range (-1e6) 1e6;
    ]

let exact_int_gen =
  QCheck2.Gen.(
    oneof [ oneofl [ 0; 1; -1; max_exact; -max_exact ]; int_range (-max_exact) max_exact ])

let string_gen =
  QCheck2.Gen.(
    string_size
      ~gen:(oneof [ oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127' ]; char ])
      (int_range 0 24))

let field_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> F f) float_gen;
        map (fun i -> I i) exact_int_gen;
        map (fun s -> S s) string_gen;
      ])

(* What a trial can hold, so what load accepts: a hop histogram that
   is empty or ends in a positive count, an alive fraction in [0, 1],
   and [spare] undelivered pairs on top of the deliveries. *)
let hop_counts_gen =
  QCheck2.Gen.(
    oneof
      [
        return [||];
        map2
          (fun counts last -> Array.of_list (counts @ [ last ]))
          (list_size (int_range 0 40) (oneof [ return 0; int_range 0 (1 lsl 40) ]))
          (int_range 1 (1 lsl 40));
      ])

let trial_gen =
  QCheck2.Gen.(
    triple hop_counts_gen
      (oneof [ oneofl [ 0.0; -0.0; 5e-324; 1.0; 0.1; 1.0 -. epsilon_float ]; float_range 0. 1. ])
      (int_range 0 1000))

let record_gen =
  QCheck2.Gen.(
    quad
      (list_size (int_range 0 12) (pair string_gen field_gen))
      (pair float_gen exact_int_gen) trial_gen string_gen)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_checkpoint_fields_round_trip
    (fields, (q, seed), (hop_counts, alive_fraction, spare), text) =
  with_temp_file (fun path ->
      (* Names are made unique by an index prefix, and never "v" or
         "kind", which every record line reserves. *)
      let named = List.mapi (fun i (name, v) -> (Printf.sprintf "f%d:%s" i name, v)) fields in
      let json = function
        | F f -> Obs.Tiny_json.Num f
        | I i -> Sim.Checkpoint.int i
        | S s -> Obs.Tiny_json.Str s
      in
      let key = [ ("seed", Sim.Checkpoint.int seed); ("name", Obs.Tiny_json.Str text) ] in
      let delivered = Array.fold_left ( + ) 0 hop_counts in
      let trial_key =
        { Sim.Checkpoint.geometry = text; bits = 8; q; pairs = delivered + spare; seed; trial = 0 }
      in
      let trial =
        { Sim.Checkpoint.delivered; attempted = delivered + spare; alive_fraction; hop_counts }
      in
      let failed = Sim.Checkpoint.Failed { attempts = 3; error = text } in
      let ck = Sim.Checkpoint.create ~path () in
      Sim.Checkpoint.record_point ck ~kind:"prop" ~key
        (List.map (fun (name, v) -> (name, json v)) named);
      Sim.Checkpoint.record ck trial_key (Sim.Checkpoint.Trial trial);
      Sim.Checkpoint.record ck { trial_key with trial = 1 } failed;
      Sim.Checkpoint.flush ck;
      let bytes = read_file path in
      let loaded = Sim.Checkpoint.load ~path () in
      let decoded =
        Sim.Checkpoint.find_point loaded ~kind:"prop" ~key ~decode:(fun f ->
            List.for_all
              (fun (name, v) ->
                match v with
                | F x -> bits_equal x (Sim.Checkpoint.get_float f name)
                | I i -> i = Sim.Checkpoint.get_int f name
                | S s -> List.assoc_opt name f = Some (Obs.Tiny_json.Str s))
              named)
      in
      let trial_ok =
        match Sim.Checkpoint.find loaded trial_key with
        | Some (Sim.Checkpoint.Trial t) ->
            bits_equal t.alive_fraction alive_fraction && { t with alive_fraction } = trial
        | Some (Sim.Checkpoint.Failed _) | None -> false
      in
      let failed_ok = Sim.Checkpoint.find loaded { trial_key with trial = 1 } = Some failed in
      Sim.Checkpoint.flush loaded;
      decoded = Some true && trial_ok && failed_ok && read_file path = bytes)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A valid checkpoint with every record shape and escapes in strings. *)
let sample_checkpoint path =
  let ck = Sim.Checkpoint.create ~path () in
  Sim.Checkpoint.record ck (sample_key 0)
    (Sim.Checkpoint.Trial
       { Sim.Checkpoint.delivered = 280; attempted = 300; alive_fraction = 0.8125;
         hop_counts = [| 0; 0; 0; 100; 120; 60 |] });
  Sim.Checkpoint.record ck (sample_key 1)
    (Sim.Checkpoint.Failed { attempts = 2; error = "bad \"quote\" \\ \001 and\nnewline" });
  Sim.Checkpoint.record_point ck ~kind:"churn"
    ~key:[ ("geometry", Obs.Tiny_json.Str "xor"); ("seed", Sim.Checkpoint.int 77) ]
    [ ("alive", Obs.Tiny_json.Num 0.1); ("events", Sim.Checkpoint.int 4242) ];
  Sim.Checkpoint.flush ck;
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let prop_checkpoint_cut_line_rejected (line_pick, cut_pick) =
  with_temp_file (fun path ->
      let lines = sample_checkpoint path in
      let i = line_pick mod List.length lines in
      let cut_line = List.nth lines i in
      let cut = 1 + (cut_pick mod (String.length cut_line - 1)) in
      List.mapi (fun j l -> if j = i then String.sub l 0 cut else l) lines
      |> String.concat "\n" |> write_file path;
      match Sim.Checkpoint.load ~path () with
      | _ -> false
      | exception Failure msg ->
          Astring_contains.contains msg (Printf.sprintf "%s, line %d: " path (i + 1)))

(* One trial record of the xor golden's key, delivered 5 of 200 pairs:
   [hops] is its hop field, a v2 ["hop_counts"] histogram or a v1
   ["hops"] list. *)
let trial_line ?(v = 2) ?(bits = 8) ?(delivered = 5) ?(attempted = 200) ?(alive = "0.71484375")
    hops =
  Printf.sprintf
    "{\"v\": %d, \"geometry\": \"xor\", \"bits\": %d, \"q\": 0.29999999999999999, \"pairs\": 200, \
     \"seed\": 7, \"trial\": 1, \"status\": \"ok\", \"delivered\": %d, \"attempted\": %d, \
     \"alive_fraction\": %s, %s}"
    v bits delivered attempted alive hops

let load_trial_line path line =
  write_file path ("{\"v\": 2, \"kind\": \"dht_rcm-checkpoint\"}\n" ^ line ^ "\n");
  Sim.Checkpoint.load ~path ()

(* A record no trial could have produced fails the load on its line
   (a [Failure], never an [Invalid_argument]), one case per rule. *)
let test_checkpoint_rejects_inconsistent_trials () =
  let counts = {|"hop_counts": [0,1,2,0,2]|} and list = {|"hops": [1,2,2,4,4]|} in
  with_temp_file (fun path ->
      List.iter
        (fun (rule, line, reason) ->
          match load_trial_line path line with
          | _ -> Alcotest.failf "%s: record accepted" rule
          | exception Failure msg ->
              if
                not
                  (Astring_contains.contains msg (path ^ ", line 2: ")
                  && Astring_contains.contains msg reason)
              then Alcotest.failf "%s: unexpected message %S" rule msg)
        [
          ("delivered below 0", trial_line ~delivered:(-1) {|"hop_counts": []|}, "delivered -1");
          ("delivered above attempted", trial_line ~delivered:201 counts, "delivered 201");
          ("attempted neither 0 nor pairs", trial_line ~attempted:100 counts, "attempted 100");
          ("alive fraction below 0", trial_line ~alive:"-0.25" counts, "alive_fraction");
          ("alive fraction above 1", trial_line ~alive:"1.5" counts, "alive_fraction");
          ("negative count", trial_line {|"hop_counts": [0,1,-2,0,6]|}, "negative count");
          ("counts above delivered", trial_line {|"hop_counts": [0,1,2,0,3]|}, "delivered 5");
          ("counts below delivered", trial_line {|"hop_counts": [0,1,2,0,1]|}, "sum to 4");
          ("trailing zero count", trial_line {|"hop_counts": [0,1,2,0,2,0]|}, "zero count");
          ("hop beyond the node count", trial_line ~bits:2 counts, "hop 4");
          ("v1 list longer than delivered", trial_line ~v:1 ~delivered:4 list, "5 hops");
          ("v1 list shorter than delivered", trial_line ~v:1 ~delivered:6 list, "5 hops");
          ("v1 negative hop", trial_line ~v:1 {|"hops": [1,2,2,-4,4]|}, "hop -4");
          ("v1 hop beyond the node count", trial_line ~v:1 ~bits:2 list, "hop 4");
          ("v1 field in a v2 record", trial_line list, "hop_counts");
        ])

(* A v1 hop list loads as its exact histogram, and is rewritten as
   one. *)
let test_checkpoint_reads_v1_hop_lists () =
  with_temp_file (fun path ->
      let key =
        { Sim.Checkpoint.geometry = "xor"; bits = 8; q = 0.3; pairs = 200; seed = 7; trial = 1 }
      in
      let expected =
        Sim.Checkpoint.Trial
          { Sim.Checkpoint.delivered = 5; attempted = 200; alive_fraction = 0.71484375;
            hop_counts = [| 0; 1; 2; 0; 2 |] }
      in
      let v1 = load_trial_line path (trial_line ~v:1 {|"hops": [4,2,1,4,2]|}) in
      Alcotest.(check bool) "v1 list converted" true (Sim.Checkpoint.find v1 key = Some expected);
      Sim.Checkpoint.flush v1;
      let v2 = read_file path in
      Alcotest.(check bool) "rewritten as v2" true
        (Astring_contains.contains v2 (trial_line {|"hop_counts": [0,1,2,0,2]|}));
      let reloaded = load_trial_line path (trial_line {|"hop_counts": [0,1,2,0,2]|}) in
      Alcotest.(check bool) "v2 record equal" true
        (Sim.Checkpoint.find reloaded key = Some expected))

let test_checkpoint_refuses_inexact_ints () =
  Alcotest.check_raises "2^53 refused"
    (Invalid_argument
       (Printf.sprintf "Sim.Checkpoint: %d is outside +-(2^53 - 1) and would not round-trip"
          (max_exact + 1)))
    (fun () -> ignore (Sim.Checkpoint.int (max_exact + 1)));
  with_temp_file (fun path ->
      let ck = Sim.Checkpoint.create ~interval:100 ~path () in
      Sim.Checkpoint.record ck { (sample_key 0) with seed = max_exact + 2 }
        (Sim.Checkpoint.Failed { attempts = 1; error = "x" });
      (match Sim.Checkpoint.flush ck with
      | () -> Alcotest.fail "a seed above 2^53 was written"
      | exception Invalid_argument _ -> ());
      match
        Sim.Estimate.run_sweep ~checkpoint:ck { cfg with seed = max_exact + 2 } [ 0.2 ]
      with
      | _ -> Alcotest.fail "run_sweep accepted a checkpointed seed above 2^53"
      | exception Invalid_argument _ -> ())

(* --- Sim.Estimate under supervision ---------------------------------------- *)

let test_sweep_transient_fault_plus_retry_bit_identical () =
  let baseline = Sim.Estimate.run_sweep cfg qs in
  match Exec.Fault.parse "trial:0.4:5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault ->
      List.iter
        (fun domains ->
          Exec.Pool.with_pool ~domains (fun pool ->
              let sweep = Sim.Estimate.run_sweep ~pool ~retries:1 ~fault cfg qs in
              check_same_sweep (Printf.sprintf "%d domains" domains) baseline sweep;
              List.iter
                (fun (_, r) ->
                  Alcotest.(check int) "no failures survive one retry" 0
                    r.Sim.Estimate.failed_trials)
                sweep))
        [ 1; 2 ]

let test_sweep_persistent_fault_counts_failures_exactly () =
  match Exec.Fault.parse "trial:0.5:77:3" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault ->
      let retries = 1 in
      let sweep = Sim.Estimate.run_sweep ~retries ~fault cfg qs in
      List.iteri
        (fun qi (_, r) ->
          (* The failing subset is a pure function of the task index, so
             the supervisor's accounting can be predicted exactly. *)
          let predicted = ref 0 in
          for j = 0 to cfg.Sim.Estimate.trials - 1 do
            if
              fault_fails fault
                ~task:((qi * cfg.Sim.Estimate.trials) + j)
                ~attempt:(retries + 1)
            then incr predicted
          done;
          Alcotest.(check int) "failed_trials matches the fault plan" !predicted
            r.Sim.Estimate.failed_trials;
          Alcotest.(check int) "attempted covers surviving trials only"
            ((cfg.Sim.Estimate.trials - !predicted) * cfg.Sim.Estimate.pairs_per_trial)
            r.Sim.Estimate.attempted)
        sweep

let test_sweep_all_trials_failed_reports_no_estimate () =
  match Exec.Fault.parse "trial:1:1:5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault ->
      let sweep = Sim.Estimate.run_sweep ~fault cfg [ 0.2 ] in
      (match sweep with
      | [ (_, r) ] ->
          Alcotest.(check int) "all trials failed" cfg.Sim.Estimate.trials
            r.Sim.Estimate.failed_trials;
          Alcotest.(check bool) "no fabricated CI" true (r.Sim.Estimate.ci = None);
          Alcotest.(check bool) "alive fraction is nan" true
            (Float.is_nan r.Sim.Estimate.mean_alive_fraction);
          let rendered = Fmt.str "%a" Sim.Estimate.pp_result r in
          Alcotest.(check bool) "pp names the failure" true
            (Astring_contains.contains rendered "every trial failed")
      | _ -> Alcotest.fail "expected one grid point")

let test_sweep_checkpoint_resume_bit_identical () =
  let baseline = Sim.Estimate.run_sweep cfg qs in
  with_temp_file (fun path ->
      (* Full checkpointed run: same numbers, file on disk. *)
      let ck = Sim.Checkpoint.create ~interval:3 ~path () in
      check_same_sweep "checkpointed" baseline
        (Sim.Estimate.run_sweep ~checkpoint:ck cfg qs);
      let full_file = read_file path in
      let entries = List.length qs * cfg.Sim.Estimate.trials in
      Alcotest.(check int) "every trial recorded" entries (Sim.Checkpoint.length ck);
      (* Simulate an interruption: keep the header and the first half of
         the entries, as if the process died between flushes. *)
      let lines = String.split_on_char '\n' full_file in
      let truncated =
        List.filteri (fun i _ -> i <= (entries / 2)) lines |> String.concat "\n"
      in
      let oc = open_out path in
      output_string oc truncated;
      close_out oc;
      let resumed = Sim.Checkpoint.load ~path () in
      Alcotest.(check bool) "resume starts from a partial store" true
        (Sim.Checkpoint.length resumed < entries);
      Exec.Pool.with_pool ~domains:2 (fun pool ->
          check_same_sweep "resumed" baseline
            (Sim.Estimate.run_sweep ~pool ~checkpoint:resumed cfg qs));
      (* And the completed checkpoint file is restored byte for byte. *)
      Alcotest.(check string) "final checkpoint file identical" full_file (read_file path))

let test_sweep_resume_replays_failures () =
  (* Failed trials are stored too: resuming under the same fault plan
     replays them from the store (same report, no wasted recompute). *)
  match Exec.Fault.parse "trial:0.5:77:5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault ->
      with_temp_file (fun path ->
          let ck = Sim.Checkpoint.create ~path () in
          let first = Sim.Estimate.run_sweep ~fault ~checkpoint:ck cfg qs in
          let reloaded = Sim.Checkpoint.load ~path () in
          (* No [~fault]: anything re-run would now succeed, so identical
             results prove every outcome was replayed from the store. *)
          let second = Sim.Estimate.run_sweep ~checkpoint:reloaded cfg qs in
          check_same_sweep "replayed" first second;
          Alcotest.(check bool) "some trials did fail" true
            (List.exists (fun (_, r) -> r.Sim.Estimate.failed_trials > 0) first))

let test_sweep_cancellation_raises_and_flushes () =
  Fun.protect ~finally:Exec.Cancel.reset (fun () ->
      Exec.Cancel.reset ();
      Exec.Cancel.request ();
      with_temp_file (fun path ->
          let ck = Sim.Checkpoint.create ~path () in
          (match Sim.Estimate.run_sweep ~checkpoint:ck cfg qs with
          | _ -> Alcotest.fail "cancelled sweep returned results"
          | exception Exec.Cancel.Cancelled -> ());
          (* The checkpoint was flushed on the way out: the file exists
             and is a loadable (empty) store. *)
          Alcotest.(check bool) "checkpoint file written" true (Sys.file_exists path);
          Alcotest.(check int) "no trials ran" 0
            (Sim.Checkpoint.length (Sim.Checkpoint.load ~path ()))))

let test_raising_trial_is_counted () =
  (* Every sweep is supervised: a trial that raises is counted in
     failed_trials, whether a fault plan or a bug raised it. *)
  (match Exec.Fault.parse "trial:1:1:5" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault -> (
      match Sim.Estimate.run_sweep { cfg with Sim.Estimate.trials = 1 } ~fault [ 0.2 ] with
      | [ (_, r) ] -> Alcotest.(check int) "injected fault counted" 1 r.Sim.Estimate.failed_trials
      | _ -> Alcotest.fail "expected one grid point"));
  (* No table takes 40 bits: every trial raises inside the build. *)
  let r = Sim.Estimate.run { cfg with Sim.Estimate.bits = 40 } in
  Alcotest.(check int) "library run counts the raising trials" cfg.Sim.Estimate.trials
    r.Sim.Estimate.failed_trials;
  Alcotest.(check bool) "no estimate" true (r.Sim.Estimate.ci = None)

(* --- Sim.Sweep --------------------------------------------------------------- *)

let value_codec =
  {
    Sim.Sweep.kind = "test";
    key = (fun c ~seed -> [ ("c", Sim.Checkpoint.int c); ("seed", Sim.Checkpoint.int seed) ]);
    encode = (fun v -> [ ("value", Sim.Checkpoint.int v) ]);
    decode = (fun _ f -> Sim.Checkpoint.get_int f "value");
  }

(* Points 0, 1, 2 on the engine, counting the point calls. *)
let value_points ck calls =
  Sim.Sweep.points ~checkpoint:(ck, value_codec) ~label:"test" ~group:string_of_int
    ~describe:string_of_int ~seed:3 [ 0; 1; 2 ] (fun c ~seed:_ ->
      Atomic.incr calls;
      10 * c)

let outcome_shape = function
  | Exec.Pool.Done v -> Printf.sprintf "done %d" v
  | Exec.Pool.Failed { attempts; error } -> Printf.sprintf "failed %d %s" attempts error
  | Exec.Pool.Cancelled -> "cancelled"

let test_engine_pool_invariant () =
  match Exec.Fault.parse "trial:0.3:5:2" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok fault ->
      let run pool =
        Array.map outcome_shape
          (Sim.Sweep.run ?pool ~retries:1 ~fault ~label:"test"
             ~group:(fun i -> string_of_int (i / 4))
             24
             (fun i -> if i mod 7 = 3 then failwith "boom" else i * i))
      in
      let sequential = run None in
      Alcotest.(check bool) "some tasks failed" true
        (Array.exists (fun s -> Astring_contains.contains s "failed") sequential);
      List.iter
        (fun domains ->
          Exec.Pool.with_pool ~domains (fun pool ->
              Alcotest.(check (array string))
                (Printf.sprintf "%d domains = inline" domains)
                sequential (run (Some pool))))
        [ 1; 2 ]

(* The first occurrence of [sub] in [text] replaced by [by]. *)
let replace_first text ~sub ~by =
  let n = String.length sub in
  let rec find i = if String.sub text i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub text 0 i ^ by ^ String.sub text (i + n) (String.length text - i - n)

let test_engine_decodes_before_any_task () =
  with_temp_file (fun path ->
      let calls = Atomic.make 0 in
      Alcotest.(check (list int)) "computed" [ 0; 10; 20 ]
        (value_points (Sim.Checkpoint.create ~path ()) calls);
      (* Line 2, the first point record, keeps its key but its value no
         longer decodes; the file still loads. *)
      write_file path
        (replace_first (read_file path) ~sub:{|"value": |} ~by:{|"value": "x", "was": |});
      let ck = Sim.Checkpoint.load ~path () in
      Atomic.set calls 0;
      (match value_points ck calls with
      | _ -> Alcotest.fail "an undecodable record replayed"
      | exception Failure msg ->
          Alcotest.(check bool) ("names the path and line: " ^ msg) true
            (Astring_contains.contains msg (path ^ ", line 2: ")));
      Alcotest.(check int) "no task ran" 0 (Atomic.get calls))

let test_engine_failed_task () =
  let outcomes =
    Sim.Sweep.run ~label:"test" ~group:(fun _ -> "") 3 (fun i ->
        if i = 1 then failwith "boom" else i)
  in
  Alcotest.(check (array string)) "the raising task is Failed"
    [| "done 0"; {|failed 1 Failure("boom")|}; "done 2" |]
    (Array.map outcome_shape outcomes);
  Alcotest.check_raises "the grid form aborts"
    (Failure {|lbl point 1 (q=0.4, trial 0) failed after 1 attempts: Failure("boom")|})
    (fun () ->
      ignore
        (Sim.Sweep.grid ~label:"lbl" ~name:(Printf.sprintf "q=%g") ~seed:1 ~trials:2
           [ 0.1; 0.4 ] (fun q _ -> if q = 0.4 then failwith "boom" else q)))

let test_engine_cancellation_flushes () =
  Fun.protect ~finally:Exec.Cancel.reset (fun () ->
      Exec.Cancel.reset ();
      with_temp_file (fun path ->
          (* An interval above the point count: only the engine's own
             flush writes the file. The second point requests
             cancellation and still completes; the third never starts. *)
          let ck = Sim.Checkpoint.create ~interval:100 ~path () in
          (match
             Sim.Sweep.points ~checkpoint:(ck, value_codec) ~label:"test" ~group:string_of_int
               ~describe:string_of_int ~seed:3 [ 0; 1; 2 ] (fun c ~seed:_ ->
                 if c = 1 then Exec.Cancel.request ();
                 10 * c)
           with
          | _ -> Alcotest.fail "a cancelled sweep returned"
          | exception Exec.Cancel.Cancelled -> ());
          Alcotest.(check int) "the completed points are on disk" 2
            (Sim.Checkpoint.length (Sim.Checkpoint.load ~path ()))))

let suite =
  [
    ("fault: parse round-trip and rejection", `Quick, test_fault_parse_roundtrip);
    ("fault: deterministic, attempt-bounded", `Quick,
      test_fault_deterministic_and_attempt_bounded);
    ("supervised: retry replays bit-identically", `Quick,
      test_supervised_retry_replays_bit_identically);
    ("supervised: exhausted retries fail with attempts", `Quick,
      test_supervised_exhausted_retries_fail);
    ("supervised: cancellation at task boundaries", `Quick,
      test_supervised_cancellation_at_task_boundaries);
    ("pool: map after shutdown raises", `Quick, test_map_after_shutdown_raises);
    ("checkpoint: store round-trip, stable bytes", `Quick, test_checkpoint_store_roundtrip);
    ("checkpoint: missing file empty, corrupt rejected", `Quick,
      test_checkpoint_missing_and_corrupt);
    Helpers.qcheck ~count:100 "checkpoint: fields round-trip bit-equal, same bytes"
      record_gen prop_checkpoint_fields_round_trip;
    Helpers.qcheck ~count:300 "checkpoint: a cut line fails naming the line"
      QCheck2.Gen.(pair nat nat)
      prop_checkpoint_cut_line_rejected;
    ("checkpoint: integers beyond 2^53 refused", `Quick,
      test_checkpoint_refuses_inexact_ints);
    ("checkpoint: inconsistent trial records rejected", `Quick,
      test_checkpoint_rejects_inconsistent_trials);
    ("checkpoint: v1 hop lists load as histograms", `Quick,
      test_checkpoint_reads_v1_hop_lists);
    ("sweep: transient fault + retry bit-identical", `Quick,
      test_sweep_transient_fault_plus_retry_bit_identical);
    ("sweep: persistent fault counts failures exactly", `Quick,
      test_sweep_persistent_fault_counts_failures_exactly);
    ("sweep: all trials failed -> no estimate", `Quick,
      test_sweep_all_trials_failed_reports_no_estimate);
    ("sweep: checkpoint interrupt/resume bit-identical", `Quick,
      test_sweep_checkpoint_resume_bit_identical);
    ("sweep: resume replays stored failures", `Quick, test_sweep_resume_replays_failures);
    ("sweep: cancellation raises and flushes", `Quick,
      test_sweep_cancellation_raises_and_flushes);
    ("sweep: a raising trial is counted, not raised", `Quick, test_raising_trial_is_counted);
    ("engine: outcomes equal at 1 and 2 domains", `Quick, test_engine_pool_invariant);
    ("engine: undecodable record fails before any task", `Quick,
      test_engine_decodes_before_any_task);
    ("engine: raising task is Failed, grid aborts", `Quick, test_engine_failed_task);
    ("engine: cancellation flushes, then raises", `Quick, test_engine_cancellation_flushes);
  ]
