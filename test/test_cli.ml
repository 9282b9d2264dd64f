(* Integration smoke tests: run the installed dhtlab binary end-to-end
   and check its output shape. The test stanza declares the executable
   as a dependency, so it is present at ../bin/dhtlab.exe relative to
   the test runner's directory. *)

let binary = Filename.concat (Filename.concat ".." "bin") "dhtlab.exe"

let run_capture args =
  let command = Filename.quote_command binary args in
  let ic = Unix.open_process_in command in
  let buffer = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buffer ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buffer)

let check_exit name = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "%s exited with %d" name n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "%s killed by signal %d" name n

let test_binary_present () =
  Alcotest.(check bool) "dhtlab.exe built" true (Sys.file_exists binary)

let test_analyze () =
  let status, out = run_capture [ "analyze"; "-d"; "10"; "-q"; "0.2" ] in
  check_exit "analyze" status;
  List.iter
    (fun name ->
      if not (Astring_contains.contains out name) then
        Alcotest.failf "analyze output missing %s" name)
    [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]

let test_scalability_table () =
  let status, out = run_capture [ "scalability" ] in
  check_exit "scalability" status;
  Alcotest.(check bool) "mentions unscalable" true (Astring_contains.contains out "unscalable");
  Alcotest.(check bool) "prints critical q" true (Astring_contains.contains out "critical q")

let test_figure_quick_csv () =
  let status, out = run_capture [ "figure"; "f7a"; "--csv" ] in
  check_exit "figure f7a" status;
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "csv header" "q,tree,hypercube,xor,ring,symphony" (List.hd lines)

let test_route_trace () =
  let status, out = run_capture [ "route"; "3"; "200"; "-g"; "ring"; "-d"; "8" ] in
  check_exit "route" status;
  Alcotest.(check bool) "delivered" true (Astring_contains.contains out "delivered");
  Alcotest.(check bool) "hop trace" true (Astring_contains.contains out "hop  0")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_export_writes_files () =
  let dir = Filename.temp_file "dhtlab" "export" in
  Sys.remove dir;
  let status, _ = run_capture [ "export"; "-o"; dir; "--quick" ] in
  check_exit "export" status;
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      if not (Sys.file_exists path) then Alcotest.failf "export missing %s" file)
    [ "f6a.csv"; "f7b.csv"; "dims.csv"; "plots.gp"; "manifest.json" ];
  (* The CSVs parse as header + at least one data row. *)
  let ic = open_in (Filename.concat dir "f7b.csv") in
  let header = input_line ic in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header has columns" true (String.contains header ',');
  Alcotest.(check bool) "data row has columns" true (String.contains first ',');
  (* The automatic manifest records every CSV with a checksum that
     matches the bytes on disk. *)
  let manifest = Obs.Tiny_json.parse (read_file (Filename.concat dir "manifest.json")) in
  let open Obs.Tiny_json in
  Alcotest.(check (option int)) "manifest exit status" (Some 0)
    (Option.bind (member "exit_status" manifest) to_int);
  let artefacts = Option.get (to_list (Option.get (member "artefacts" manifest))) in
  Alcotest.(check bool) "one artefact per csv + plots.gp" true
    (List.length artefacts >= 18);
  let f6a =
    List.find
      (fun a ->
        match Option.bind (member "path" a) to_str with
        | Some p -> Filename.basename p = "f6a.csv"
        | None -> false)
      artefacts
  in
  Alcotest.(check (option string)) "manifest checksum matches disk"
    (Some (Digest.to_hex (Digest.file (Filename.concat dir "f6a.csv"))))
    (Option.bind (member "md5" f6a) to_str)

let test_unknown_figure_rejected () =
  match run_capture [ "figure"; "nonsense" ] with
  | Unix.WEXITED 0, _ -> Alcotest.fail "unknown figure accepted"
  | _, _ -> ()

(* Like run_capture, but through the shell so the command string can
   set environment variables and redirect stderr. *)
let run_capture_shell command =
  let ic = Unix.open_process_in command in
  let buffer = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buffer ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buffer)

let tiny_simulate =
  [ "simulate"; "-g"; "xor"; "-d"; "6"; "-q"; "0.2"; "--trials"; "1"; "--pairs"; "20" ]

let test_jobs_zero_rejected () =
  (* Regression: --jobs 0 used to be swallowed by a silent fallback; it
     must be a CLI argument error. *)
  match run_capture (tiny_simulate @ [ "--jobs"; "0" ]) with
  | Unix.WEXITED 0, _ -> Alcotest.fail "--jobs 0 accepted"
  | _, _ -> ()

let test_bad_env_jobs_warns () =
  (* Regression: a malformed DHT_RCM_JOBS used to fall back silently;
     the warning must name the rejected value. *)
  let command =
    Printf.sprintf "DHT_RCM_JOBS=banana %s 2>&1" (Filename.quote_command binary tiny_simulate)
  in
  let status, out = run_capture_shell command in
  check_exit "simulate with bad DHT_RCM_JOBS" status;
  Alcotest.(check bool) "warning names the rejected value" true
    (Astring_contains.contains out {|DHT_RCM_JOBS="banana"|})

let test_metrics_flag_summary () =
  let command =
    Printf.sprintf "%s 2>&1"
      (Filename.quote_command binary (tiny_simulate @ [ "--jobs"; "2"; "--metrics" ]))
  in
  let status, out = run_capture_shell command in
  check_exit "simulate --metrics" status;
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "metrics summary has %s" fragment)
        true
        (Astring_contains.contains out fragment))
    [ "==== metrics ===="; "cache/misses"; "routing/xor/delivered"; "estimate/trial_s" ]

let test_figure_blocks_smoke () =
  let status, out = run_capture [ "figure"; "blocks"; "--quick"; "--csv" ] in
  check_exit "figure blocks" status;
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "header has iid and blk series" true
    (Astring_contains.contains (List.hd lines) "(iid)"
    && Astring_contains.contains (List.hd lines) "(blk)");
  Alcotest.(check bool) "has data rows" true (List.length lines > 2)

let test_inject_fault_exhausts_retries_exit_zero () =
  (* Acceptance: a run whose faults exhaust the retry budget still
     exits 0, with the failures visible in the report and counted under
     supervisor/* when --metrics is on. *)
  let command =
    Printf.sprintf "%s 2>&1"
      (Filename.quote_command binary
         ([ "simulate"; "-g"; "xor"; "--smoke"; "-q"; "0.2"; "--jobs"; "2"; "--metrics" ]
         @ [ "--inject-fault"; "trial:0.5:9:5"; "--trial-retries"; "1" ]))
  in
  let status, out = run_capture_shell command in
  check_exit "simulate with persistent faults" status;
  Alcotest.(check bool) "failed trials visible" true
    (Astring_contains.contains out "trials failed");
  Alcotest.(check bool) "supervisor/failed_trials counted" true
    (Astring_contains.contains out "supervisor/failed_trials");
  Alcotest.(check bool) "supervisor/retries counted" true
    (Astring_contains.contains out "supervisor/retries")

let test_bad_fault_spec_rejected () =
  match run_capture (tiny_simulate @ [ "--inject-fault"; "trial:2:1" ]) with
  | Unix.WEXITED 0, _ -> Alcotest.fail "--inject-fault trial:2:1 accepted"
  | _, _ -> ()

let test_resume_requires_checkpoint () =
  match run_capture (tiny_simulate @ [ "--resume" ]) with
  | Unix.WEXITED 0, _ -> Alcotest.fail "--resume without --checkpoint accepted"
  | _, _ -> ()

let test_checkpoint_resume_roundtrip_stdout () =
  let ck = Filename.temp_file "dhtlab" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ck with Sys_error _ -> ())
    (fun () ->
      Sys.remove ck;
      let args = [ "simulate"; "-g"; "ring"; "--smoke"; "--seed"; "5"; "--jobs"; "2" ] in
      let status, baseline = run_capture args in
      check_exit "baseline" status;
      let status, first = run_capture (args @ [ "--checkpoint"; ck ]) in
      check_exit "checkpointed" status;
      Alcotest.(check string) "checkpointing is invisible on stdout" baseline first;
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
      (* Resuming from the complete checkpoint recomputes nothing and
         reprints the identical report. *)
      let status, resumed = run_capture (args @ [ "--checkpoint"; ck; "--resume" ]) in
      check_exit "resumed" status;
      Alcotest.(check string) "resume reproduces stdout byte-for-byte" baseline resumed)

(* The tentpole acceptance criterion: any combination of observability
   flags leaves stdout byte-identical, while every requested sink file
   appears, validates, and no .tmp staging file survives. *)
let test_obs_flags_preserve_stdout () =
  let dir = Filename.temp_file "dhtlab" "obs" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  let args = [ "simulate"; "-g"; "ring"; "--smoke"; "--seed"; "11"; "--jobs"; "2" ] in
  let status, baseline = run_capture args in
  check_exit "baseline" status;
  let status, observed =
    run_capture
      (args
      @ [
          "--trace-out"; path "t.jsonl"; "--metrics-out"; path "m.json";
          "--metrics-prom"; path "m.prom"; "--manifest"; path "man.json";
          "--obs-interval"; "0.05"; "--no-progress";
        ])
  in
  check_exit "observed" status;
  Alcotest.(check string) "all obs flags leave stdout byte-identical" baseline observed;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " written") true (Sys.file_exists (path name));
      Alcotest.(check bool) (name ^ " left no .tmp") false
        (Sys.file_exists (path name ^ ".tmp")))
    [ "t.jsonl"; "m.json"; "m.prom"; "man.json" ];
  let open Obs.Tiny_json in
  let manifest = parse (read_file (path "man.json")) in
  Alcotest.(check (option int)) "manifest exit status" (Some 0)
    (Option.bind (member "exit_status" manifest) to_int);
  (match member "notes" manifest with
  | Some notes ->
      Alcotest.(check (option int)) "manifest resolved jobs" (Some 2)
        (Option.bind (member "jobs" notes) to_int);
      Alcotest.(check (option int)) "manifest seed" (Some 11)
        (Option.bind (member "seed" notes) to_int)
  | None -> Alcotest.fail "manifest has no notes");
  (match parse (read_file (path "m.json")) with
  | Obj _ -> ()
  | _ -> Alcotest.fail "metrics snapshot is not a JSON object");
  Alcotest.(check bool) "prometheus sink carries dhtlab_ families" true
    (Astring_contains.contains (read_file (path "m.prom")) "# TYPE dhtlab_");
  (* A forced progress line goes to stderr and never stdout. *)
  let command =
    Printf.sprintf "%s 2>&1 >/dev/null"
      (Filename.quote_command binary (args @ [ "--progress" ]))
  in
  let status, err = run_capture_shell command in
  check_exit "simulate --progress" status;
  Alcotest.(check bool) "progress line painted on stderr" true
    (Astring_contains.contains err "trials")

let test_trace_cli_report_and_chrome () =
  let dir = Filename.temp_file "dhtlab" "trace" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let trace = Filename.concat dir "t.jsonl" in
  let chrome = Filename.concat dir "t.chrome.json" in
  let status, _ =
    run_capture
      [
        "simulate"; "-g"; "xor"; "--smoke"; "--seed"; "3"; "--jobs"; "2";
        "--trace-out"; trace;
      ]
  in
  check_exit "traced simulate" status;
  let status, report = run_capture [ "trace"; "report"; trace ] in
  check_exit "trace report" status;
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "report has %s" fragment)
        true
        (Astring_contains.contains report fragment))
    [
      "==== trace ====";
      "==== spans ====";
      "==== domains ====";
      "==== hops (per geometry) ====";
      "==== slowest spans ====";
      "estimate/sweep";
      "overlay/build";
      "xor";
    ];
  let status, _ = run_capture [ "trace"; "export-chrome"; trace; "-o"; chrome ] in
  check_exit "trace export-chrome" status;
  let open Obs.Tiny_json in
  let json = parse (read_file chrome) in
  Alcotest.(check (option string)) "chrome time unit" (Some "ms")
    (Option.bind (member "displayTimeUnit" json) to_str);
  (match Option.bind (member "traceEvents" json) to_list with
  | Some events -> Alcotest.(check bool) "chrome export non-empty" true (events <> [])
  | None -> Alcotest.fail "chrome export has no traceEvents");
  (* Reading a missing trace is a clean error, not a backtrace. *)
  match run_capture [ "trace"; "report"; Filename.concat dir "absent.jsonl" ] with
  | Unix.WEXITED 0, _ -> Alcotest.fail "trace report on a missing file exited 0"
  | _, _ -> ()

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let temp_dir name =
  let dir = Filename.temp_file "dhtlab" name in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let validator = Filename.concat (Filename.concat ".." "bench") "validate.exe"

(* A manifest records artefact paths as the run was given them, so
   relative ones resolve against the directory the run started in, not
   the manifest's: a run with relative paths and its manifest in a
   subdirectory must validate from where it ran. *)
let test_manifest_relative_paths () =
  let dir = temp_dir "relative" in
  Sys.mkdir (Filename.concat dir "sub") 0o700;
  let in_dir exe args =
    Printf.sprintf "cd %s && %s 2>&1" (Filename.quote dir)
      (Filename.quote_command (Filename.concat (Sys.getcwd ()) exe) args)
  in
  let status, _ =
    run_capture_shell
      (in_dir binary
         [
           "simulate"; "--smoke"; "-g"; "xor"; "--seed"; "7"; "--checkpoint"; "ck.jsonl";
           "--manifest"; "sub/m.json";
         ])
  in
  check_exit "simulate with relative paths" status;
  match run_capture_shell (in_dir validator [ "--manifest"; "sub/m.json" ]) with
  | Unix.WEXITED 0, _ -> ()
  | _, out -> Alcotest.failf "validate.exe rejected the manifest: %s" out

(* Sweep commands fail with a one-line "dhtlab <cmd>: " message and a
   meaningful exit code, never an uncaught exception (125) or a hang:
   bad configs and unusable checkpoints exit 2, once, up front (not
   retried as point faults); a point that exhausts its retries exits 1
   with the checkpoint flushed; cmdliner rejects a zero flush interval
   (124), as it does --jobs 0. *)
let test_sweep_command_errors () =
  let dir = temp_dir "errors" in
  let corrupt = Filename.concat dir "corrupt.jsonl" in
  write_file corrupt "{\"v\": 1, \"kind\": \"dht_rcm-checkpoint\"}\n{\"v\": 1, \"kind\": \"ch";
  let partial = Filename.concat dir "partial.jsonl" in
  let unused = Filename.concat dir "unused.jsonl" in
  let smoke_xor = [ "simulate"; "--smoke"; "-g"; "xor" ] in
  let retried = [ "churn"; "--trial-retries"; "3" ] in
  List.iter
    (fun (args, code, prefix) ->
      let command = Printf.sprintf "%s 2>&1" (Filename.quote_command binary args) in
      let name = String.concat " " args in
      let status, out = run_capture_shell command in
      (match status with
      | Unix.WEXITED n when n = code -> ()
      | Unix.WEXITED n -> Alcotest.failf "%s exited with %d (expected %d):\n%s" name n code out
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "%s killed by signal %d" name n);
      Alcotest.(check bool) (Printf.sprintf "%s: message starts %S" name prefix) true
        (Astring_contains.contains out prefix);
      Alcotest.(check bool) (name ^ " is not an internal error") false
        (Astring_contains.contains out "internal error"))
    [
      (retried @ [ "--smoke"; "-k"; "0" ], 2, "dhtlab churn: ");
      (retried @ [ "--smoke"; "--maintain"; "0" ], 2, "dhtlab churn: ");
      (* --smoke would override the session sweep. *)
      (retried @ [ "--sessions"; "nan" ], 2, "dhtlab churn: ");
      (retried @ [ "--smoke"; "--maintain"; "nan" ], 2, "dhtlab churn: ");
      (retried @ [ "--smoke"; "--warmup"; "nan" ], 2, "dhtlab churn: ");
      (retried @ [ "--smoke"; "--spacing"; "nan" ], 2, "dhtlab churn: ");
      (smoke_xor @ [ "--checkpoint-every"; "0"; "--checkpoint"; unused ], 124,
        "dhtlab: option '--checkpoint-every'");
      ([ "churn"; "--smoke"; "--checkpoint-every"; "0" ], 124,
        "dhtlab: option '--checkpoint-every'");
      ([ "storage"; "--smoke"; "--checkpoint-every"; "0" ], 124,
        "dhtlab: option '--checkpoint-every'");
      (smoke_xor @ [ "--resume"; "--checkpoint"; corrupt ], 2,
        Printf.sprintf "dhtlab simulate: %s, line 2: " corrupt);
      ([ "churn"; "--smoke"; "--resume"; "--checkpoint"; corrupt ], 2,
        Printf.sprintf "dhtlab churn: %s, line 2: " corrupt);
      ([ "storage"; "--smoke"; "--resume"; "--checkpoint"; dir ], 2, "dhtlab storage: " ^ dir);
      (smoke_xor @ [ "--seed"; "9007199254740993"; "--checkpoint"; unused ], 2,
        "dhtlab simulate: --seed 9007199254740993");
      ([ "hotspots"; "--plane"; "storage"; "--zipf"; "" ], 2, "dhtlab hotspots: ");
      ([ "hotspots"; "--plane"; "routing"; "--qs"; "" ], 2, "dhtlab hotspots: ");
      ([ "storage"; "--smoke"; "--sessions"; "2"; "--warmup"; "nan" ], 2, "dhtlab storage: ");
      ([ "storage"; "--smoke"; "--sessions"; "2"; "--warmup"; "inf" ], 2, "dhtlab storage: ");
      ([ "storage"; "--smoke"; "--sessions"; "2"; "--spacing"; "inf" ], 2, "dhtlab storage: ");
      (* Lifetime shape parameters must be finite. *)
      ([ "churn"; "--smoke"; "--session-dist"; "pareto:inf" ], 124,
        "dhtlab: option '--session-dist'");
      ([ "churn"; "--smoke"; "--gap-dist"; "weibull:inf" ], 124, "dhtlab: option '--gap-dist'");
      ([ "storage"; "--smoke"; "--sessions"; "2,8"; "--session-dist"; "pareto:inf" ], 124,
        "dhtlab: option '--session-dist'");
      ([ "storage"; "--smoke"; "--sessions"; "2,8"; "--gap-dist"; "weibull:inf" ], 124,
        "dhtlab: option '--gap-dist'");
      ([ "churn"; "--smoke"; "--inject-fault"; "trial:1:1" ], 1,
        "dhtlab churn: churn point 0 (tree, session 2) failed after 1 attempts");
      ([ "storage"; "--smoke"; "--inject-fault"; "trial:1:1" ], 1,
        "dhtlab storage: storage point 0 (");
      ([ "hotspots"; "--smoke"; "--inject-fault"; "trial:1:1" ], 1,
        "dhtlab hotspots: hotspots point 0 (");
      ([ "churn"; "--smoke"; "--inject-fault"; "trial:0.5:3"; "--checkpoint"; partial ], 1,
        "dhtlab churn: churn point ");
    ];
  Alcotest.(check bool) "the checkpoint holds the points completed before exit 1" true
    (Sim.Checkpoint.length (Sim.Checkpoint.load ~path:partial ()) > 0);
  Alcotest.(check bool) "rejected runs wrote no checkpoint" false (Sys.file_exists unused)

(* Golden checkpoints pin the record format: each command's
   --checkpoint file must match its golden byte for byte, and resuming
   from a copy of the golden under a fault plan that fails every
   computed point or trial ([--inject-fault trial:1:1], no retries)
   must recompute nothing — the writing command's stdout, and the
   golden rewritten unchanged. *)
let check_checkpoint_golden ~write ~resume file () =
  let dir = temp_dir "golden" in
  let golden = read_file (Filename.concat "golden" file) in
  let ck = Filename.concat dir "ck.jsonl" in
  let status, out = run_capture (write @ [ "--jobs"; "1"; "--checkpoint"; ck ]) in
  check_exit (String.concat " " write) status;
  Alcotest.(check string) ("checkpoint matches golden/" ^ file) golden (read_file ck);
  let copy = Filename.concat dir "copy.jsonl" in
  write_file copy golden;
  let status, resumed =
    run_capture
      (resume @ [ "--jobs"; "2"; "--inject-fault"; "trial:1:1"; "--checkpoint"; copy; "--resume" ])
  in
  check_exit "resume from the golden" status;
  Alcotest.(check string) "resume prints the writing command's stdout" out resumed;
  Alcotest.(check string) "resume rewrites the golden unchanged" golden (read_file copy)

let simulate_golden_args = [ "simulate"; "--smoke"; "-g"; "xor"; "-q"; "0.3"; "--seed"; "7" ]

(* A resume from a complete golden emits one checkpoint/replay trace
   event per stored point or trial. *)
let check_replay_trace ~args ~kind ~count file () =
  let dir = temp_dir "replay" in
  let copy = Filename.concat dir "copy.jsonl" in
  let trace = Filename.concat dir "trace.jsonl" in
  write_file copy (read_file (Filename.concat "golden" file));
  let status, _ =
    run_capture (args @ [ "--checkpoint"; copy; "--resume"; "--trace-out"; trace ])
  in
  check_exit "traced resume" status;
  let open Obs.Tiny_json in
  let replays =
    String.split_on_char '\n' (read_file trace)
    |> List.filter (fun line -> line <> "")
    |> List.filter_map (fun line ->
           let record = parse line in
           if Option.bind (member "name" record) to_str = Some "checkpoint/replay" then
             member "attrs" record
           else None)
  in
  Alcotest.(check (list int)) "one event per replayed task" (List.init count Fun.id)
    (List.sort compare (List.filter_map (fun a -> Option.bind (member "task" a) to_int) replays));
  Alcotest.(check bool) "events name the record kind" true
    (List.for_all (fun a -> Option.bind (member "kind" a) to_str = Some kind) replays)

(* Golden outputs: generated once and checked in, so a change to draw
   or event order fails here even when it is the same at every domain
   count. Regenerate a file (the command is in its test case) only for
   a deliberate change of output. *)
let check_golden args file () =
  let status, out = run_capture args in
  check_exit (String.concat " " args) status;
  Alcotest.(check string) ("matches golden/" ^ file)
    (read_file (Filename.concat "golden" file))
    out

let suite =
  [
    ("binary present", `Quick, test_binary_present);
    ("analyze", `Quick, test_analyze);
    ("scalability table", `Quick, test_scalability_table);
    ("figure csv", `Quick, test_figure_quick_csv);
    ("route trace", `Quick, test_route_trace);
    ("export writes files", `Slow, test_export_writes_files);
    ("unknown figure rejected", `Quick, test_unknown_figure_rejected);
    ("--jobs 0 rejected", `Quick, test_jobs_zero_rejected);
    ("bad DHT_RCM_JOBS warns on stderr", `Quick, test_bad_env_jobs_warns);
    ("--metrics prints summary", `Quick, test_metrics_flag_summary);
    ("figure blocks smoke", `Quick, test_figure_blocks_smoke);
    ("--inject-fault exhausting retries exits 0", `Quick,
      test_inject_fault_exhausts_retries_exit_zero);
    ("bad --inject-fault spec rejected", `Quick, test_bad_fault_spec_rejected);
    ("--resume without --checkpoint rejected", `Quick, test_resume_requires_checkpoint);
    ("checkpoint/resume stdout roundtrip", `Quick, test_checkpoint_resume_roundtrip_stdout);
    ("obs flags preserve stdout + sinks validate", `Quick, test_obs_flags_preserve_stdout);
    ("trace report/export-chrome CLI", `Quick, test_trace_cli_report_and_chrome);
    ("manifest with relative paths validates", `Quick, test_manifest_relative_paths);
    ("sweep command errors", `Quick, test_sweep_command_errors);
    ("resume traces replayed points", `Quick,
      check_replay_trace ~args:[ "churn"; "--smoke"; "--seed"; "7" ] ~kind:"churn" ~count:10
        "checkpoint-churn-smoke-seed7.jsonl");
    ("resume traces replayed trials", `Quick,
      check_replay_trace ~args:simulate_golden_args ~kind:"trial" ~count:6
        "checkpoint-simulate-smoke-xor-faults.jsonl");
    ("golden checkpoint churn --smoke --seed 7", `Quick,
      check_checkpoint_golden
        ~write:[ "churn"; "--smoke"; "--seed"; "7" ]
        ~resume:[ "churn"; "--smoke"; "--seed"; "7" ]
        "checkpoint-churn-smoke-seed7.jsonl");
    ("golden checkpoint storage --smoke --seed 7", `Quick,
      check_checkpoint_golden
        ~write:[ "storage"; "--smoke"; "--seed"; "7" ]
        ~resume:[ "storage"; "--smoke"; "--seed"; "7" ]
        "checkpoint-storage-smoke-seed7.jsonl");
    ("golden checkpoint storage --sessions 2,8", `Quick,
      check_checkpoint_golden
        ~write:[ "storage"; "--smoke"; "--sessions"; "2,8"; "--seed"; "7" ]
        ~resume:[ "storage"; "--smoke"; "--sessions"; "2,8"; "--seed"; "7" ]
        "checkpoint-storage-smoke-sessions-2-8-seed7.jsonl");
    ("golden checkpoint simulate with faults", `Quick,
      check_checkpoint_golden
        ~write:
          (simulate_golden_args
          @ [ "--trial-retries"; "1"; "--inject-fault"; "trial:0.5:9:5" ])
        ~resume:simulate_golden_args "checkpoint-simulate-smoke-xor-faults.jsonl");
    ("golden churn --smoke --seed 7", `Quick,
      check_golden [ "churn"; "--smoke"; "--csv"; "--seed"; "7" ] "churn-smoke-seed7.csv");
    ("golden storage --smoke --sessions 2,8", `Quick,
      check_golden
        [ "storage"; "--smoke"; "--sessions"; "2,8"; "--csv" ]
        "storage-smoke-sessions-2-8.csv");
    ("golden figure rep-xor --quick", `Quick,
      check_golden [ "figure"; "rep-xor"; "--quick" ] "figure-rep-xor-quick.txt");
  ]
