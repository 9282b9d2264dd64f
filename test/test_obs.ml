(* The observability layer: metrics arithmetic, trace JSONL shape, and
   the zero-interference contract — turning instrumentation on must not
   change a single simulated bit. *)

let contains_substring haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let test_counters () =
  with_metrics (fun () ->
      let c = Obs.Metrics.counter "test/count" in
      Obs.Metrics.incr c;
      Obs.Metrics.incr ~by:4 c;
      Alcotest.(check int) "1 + 4" 5 (Obs.Metrics.counter_value c);
      Obs.Metrics.incr_named "test/named";
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check (option int)) "snapshot sees interned counter" (Some 5)
        (List.assoc_opt "test/count" snap.Obs.Metrics.counters);
      Alcotest.(check (option int)) "snapshot sees named counter" (Some 1)
        (List.assoc_opt "test/named" snap.Obs.Metrics.counters))

let test_histograms () =
  with_metrics (fun () ->
      let h = Obs.Metrics.histogram "test/hist" in
      List.iter (fun v -> Obs.Metrics.observe h (float_of_int v)) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      let snap = Obs.Metrics.snapshot () in
      match List.assoc_opt "test/hist" snap.Obs.Metrics.histograms with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some s ->
          Alcotest.(check int) "count" 8 s.Obs.Metrics.count;
          Alcotest.(check (float 1e-9)) "sum" 36.0 s.Obs.Metrics.sum;
          Alcotest.(check (float 1e-9)) "min" 1.0 s.Obs.Metrics.min;
          Alcotest.(check (float 1e-9)) "max" 8.0 s.Obs.Metrics.max;
          Alcotest.(check (float 1e-9)) "mean" 4.5 s.Obs.Metrics.mean;
          (* Quantiles have power-of-two bucket resolution: they must
             bracket the exact value from above, never undershoot it. *)
          Alcotest.(check bool)
            (Printf.sprintf "p50 = %g in [4, 8]" s.Obs.Metrics.p50)
            true
            (s.Obs.Metrics.p50 >= 4.0 && s.Obs.Metrics.p50 <= 8.0);
          Alcotest.(check bool)
            (Printf.sprintf "p90 = %g in [p50, max]" s.Obs.Metrics.p90)
            true
            (s.Obs.Metrics.p90 >= s.Obs.Metrics.p50 && s.Obs.Metrics.p90 <= 8.0))

let test_disabled_is_noop () =
  Obs.Metrics.reset ();
  Alcotest.(check bool) "disabled by default in tests" false (Obs.Metrics.enabled ());
  let c = Obs.Metrics.counter "test/disabled" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe_named "test/disabled-hist" 1.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "now () skips the clock" 0.0 (Obs.Metrics.now ());
  let snap = Obs.Metrics.snapshot () in
  (match List.assoc_opt "test/disabled-hist" snap.Obs.Metrics.histograms with
  | Some s -> Alcotest.(check int) "histogram untouched" 0 s.Obs.Metrics.count
  | None -> ());
  Obs.Metrics.reset ()

let test_json_snapshot_shape () =
  with_metrics (fun () ->
      Obs.Metrics.incr_named "test/a";
      Obs.Metrics.observe_named "test/b" 0.5;
      let json = Obs.Metrics.to_json () in
      List.iter
        (fun fragment ->
          Alcotest.(check bool)
            (Printf.sprintf "json contains %s" fragment)
            true
            (contains_substring json fragment))
        [ {|"counters"|}; {|"histograms"|}; {|"test/a": 1|}; {|"test/b"|}; {|"count": 1|} ])

(* On the flat backend, so the batch kernel's C lanes route the pairs
   and do the loadmap counting. *)
let run_estimate () =
  Sim.Estimate.run ~backend:Overlay.Table.Flat
    (Sim.Estimate.config ~trials:2 ~pairs_per_trial:200 ~seed:7 ~bits:8 ~q:0.3
       Rcm.Geometry.Xor)

(* The acceptance contract of the whole layer: instrumentation observes
   the engine, it never participates. Results with metrics, tracing and
   a loadmap sink on must be bit-identical to results with everything
   off. *)
let test_instrumentation_preserves_results () =
  Obs.Metrics.set_enabled false;
  let plain = run_estimate () in
  let trace_path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  let loadmap = Obs.Loadmap.create ~nodes:256 in
  let observed =
    with_metrics (fun () ->
        Obs.Trace.with_file trace_path (fun () ->
            Obs.Loadmap.with_sink loadmap run_estimate))
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace_path)
    (fun () ->
      Alcotest.(check bool) "the sink counted traversals" true
        (Obs.Loadmap.total loadmap Obs.Loadmap.Route_traversal > 0);
      Alcotest.(check int) "delivered" plain.Sim.Estimate.delivered
        observed.Sim.Estimate.delivered;
      Alcotest.(check int) "attempted" plain.Sim.Estimate.attempted
        observed.Sim.Estimate.attempted;
      Alcotest.(check int64) "mean_alive_fraction bits"
        (Int64.bits_of_float plain.Sim.Estimate.mean_alive_fraction)
        (Int64.bits_of_float observed.Sim.Estimate.mean_alive_fraction);
      Alcotest.(check int64) "routability bits"
        (Int64.bits_of_float (Sim.Estimate.routability plain))
        (Int64.bits_of_float (Sim.Estimate.routability observed)))

let test_trace_writes_jsonl () =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.with_file path (fun () ->
          Alcotest.(check bool) "enabled while sink installed" true (Obs.Trace.enabled ());
          Obs.Trace.event "test/event" ~attrs:[ ("k", Obs.Trace.String "v") ] ();
          Alcotest.(check int) "span returns f's result" 3
            (Obs.Trace.span "test/span" (fun () -> 3));
          (* Spans must be emitted even when the body raises. *)
          try Obs.Trace.span "test/raise" (fun () -> failwith "boom")
          with Failure _ -> ());
      Alcotest.(check bool) "sink removed" false (Obs.Trace.enabled ());
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per record" 3 (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "line is a JSON object: %s" line)
            true
            (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}');
          List.iter
            (fun field ->
              Alcotest.(check bool)
                (Printf.sprintf "line has %s: %s" field line)
                true
                (contains_substring line field))
            [ {|"ts"|}; {|"kind"|}; {|"name"|}; {|"domain"|} ])
        lines;
      let span_lines =
        List.filter (fun l -> contains_substring l {|"kind": "span"|}) lines
      in
      Alcotest.(check int) "two spans (one from a raising body)" 2 (List.length span_lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "span has dur_s" true
            (contains_substring l {|"dur_s"|}))
        span_lines)

let test_disabled_span_runs_body () =
  Obs.Trace.close ();
  Alcotest.(check int) "span is identity when disabled" 7
    (Obs.Trace.span "test/none" (fun () -> 7));
  Obs.Trace.event "test/none" ()

(* JSON must stay standard: a histogram fed nan/inf renders those
   aggregates as null, never as a bare NaN token. *)
let test_json_non_finite_is_null () =
  with_metrics (fun () ->
      Obs.Metrics.observe_named "test/degraded-a" Float.nan;
      Obs.Metrics.observe_named "test/degraded-b" Float.infinity;
      let json = Obs.Metrics.to_json () in
      Alcotest.(check bool) "no NaN token" false (contains_substring json "nan");
      Alcotest.(check bool) "no inf token" false (contains_substring json "inf");
      Alcotest.(check bool) "null stands in" true (contains_substring json "null");
      (* The file must parse as real JSON despite the degraded values. *)
      match Obs.Tiny_json.parse json with
      | Obs.Tiny_json.Obj _ -> ()
      | _ -> Alcotest.fail "snapshot JSON did not parse to an object"
      | exception Obs.Tiny_json.Error msg ->
          Alcotest.fail ("snapshot JSON unparseable: " ^ msg))

let test_quantiles_empty_and_singleton () =
  with_metrics (fun () ->
      let h = Obs.Metrics.histogram "test/empty" in
      ignore h;
      let snap = Obs.Metrics.snapshot () in
      (match List.assoc_opt "test/empty" snap.Obs.Metrics.histograms with
      | None -> Alcotest.fail "registered empty histogram missing from snapshot"
      | Some s ->
          Alcotest.(check int) "empty count" 0 s.Obs.Metrics.count;
          Alcotest.(check (float 0.0)) "empty p50" 0.0 s.Obs.Metrics.p50;
          Alcotest.(check (float 0.0)) "empty p99" 0.0 s.Obs.Metrics.p99);
      Obs.Metrics.observe_named "test/single" 3.0;
      let snap = Obs.Metrics.snapshot () in
      match List.assoc_opt "test/single" snap.Obs.Metrics.histograms with
      | None -> Alcotest.fail "singleton histogram missing from snapshot"
      | Some s ->
          Alcotest.(check int) "singleton count" 1 s.Obs.Metrics.count;
          (* With one sample every quantile is that sample (the bucket
             estimate is clamped to the exact max). *)
          List.iter
            (fun (label, v) -> Alcotest.(check (float 1e-9)) label 3.0 v)
            [
              ("p50", s.Obs.Metrics.p50);
              ("p90", s.Obs.Metrics.p90);
              ("p99", s.Obs.Metrics.p99);
              ("min", s.Obs.Metrics.min);
              ("max", s.Obs.Metrics.max);
            ])

let test_reset_preserves_registration () =
  with_metrics (fun () ->
      let c = Obs.Metrics.counter "test/reset-c" in
      Obs.Metrics.incr ~by:3 c;
      Obs.Metrics.observe_named "test/reset-h" 1.5;
      Obs.Metrics.reset ();
      Alcotest.(check bool) "still enabled" true (Obs.Metrics.enabled ());
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check (option int)) "counter still registered, zeroed" (Some 0)
        (List.assoc_opt "test/reset-c" snap.Obs.Metrics.counters);
      (match List.assoc_opt "test/reset-h" snap.Obs.Metrics.histograms with
      | None -> Alcotest.fail "histogram lost by reset"
      | Some s -> Alcotest.(check int) "histogram zeroed" 0 s.Obs.Metrics.count);
      (* The interned handle keeps working after reset. *)
      Obs.Metrics.incr c;
      Alcotest.(check int) "handle survives reset" 1 (Obs.Metrics.counter_value c))

(* Prometheus exposition: every sample line must carry a legal metric
   name, counters must be non-negative integers, each family gets
   exactly one TYPE line, and a "[k=v]" internal suffix becomes a real
   label so a q-grid stays one family. *)
let test_prometheus_renderer () =
  with_metrics (fun () ->
      Obs.Metrics.incr_named ~by:7 "test/prom count";
      Obs.Metrics.observe_named "test/lat[q=0.5]" 0.25;
      Obs.Metrics.observe_named "test/lat[q=0.9]" 0.5;
      let text = Obs.Metrics.to_prometheus () in
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "renders something" true (lines <> []);
      let legal_name n =
        n <> ""
        && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
        && String.for_all
             (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
             n
      in
      let sample_name line =
        let stop =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some s -> Stdlib.min b s
          | Some b, None -> b
          | None, Some s -> s
          | None, None -> String.length line
        in
        String.sub line 0 stop
      in
      let type_lines = ref [] in
      List.iter
        (fun line ->
          if String.length line > 0 && line.[0] = '#' then begin
            (match String.split_on_char ' ' line with
            | "#" :: "TYPE" :: family :: _ ->
                Alcotest.(check bool) ("legal family name " ^ family) true (legal_name family);
                Alcotest.(check bool) ("one TYPE line for " ^ family) false
                  (List.mem family !type_lines);
                type_lines := family :: !type_lines
            | _ -> Alcotest.fail ("unexpected comment line: " ^ line))
          end
          else begin
            let name = sample_name line in
            Alcotest.(check bool) ("legal sample name " ^ name) true (legal_name name);
            Alcotest.(check bool) ("dhtlab_ prefix on " ^ name) true
              (String.length name > 7 && String.sub name 0 7 = "dhtlab_")
          end)
        lines;
      (* Counter sample: monotone (non-negative integer) with _total. *)
      let counter_line =
        List.find
          (fun l ->
            l.[0] <> '#' && contains_substring l "dhtlab_test_prom_count_total")
          lines
      in
      (match String.split_on_char ' ' counter_line with
      | [ _; v ] ->
          (match int_of_string_opt v with
          | Some n -> Alcotest.(check bool) "counter non-negative" true (n >= 0)
          | None -> Alcotest.fail ("counter value not an integer: " ^ v))
      | _ -> Alcotest.fail ("malformed counter line: " ^ counter_line));
      (* The [q=...] suffix became a label on one shared family. *)
      Alcotest.(check bool) "q label extracted" true
        (contains_substring text {|q="0.5"|} && contains_substring text {|q="0.9"|});
      Alcotest.(check bool) "summary quantiles present" true
        (contains_substring text {|quantile="0.5"|}
        && contains_substring text {|quantile="0.99"|});
      Alcotest.(check bool) "summary count sample" true
        (contains_substring text "dhtlab_test_lat_count"))

let count_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      !n)

(* The flush satellite: a hard-killed run must find most of its records
   already on disk in the staging .tmp, not in a channel buffer. *)
let test_trace_flushes_periodically () =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.close ();
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      Obs.Trace.open_file path;
      for i = 1 to Obs.Trace.flush_interval do
        Obs.Trace.event (Printf.sprintf "test/flush%d" i) ()
      done;
      Alcotest.(check bool) "staging .tmp exists mid-run" true (Sys.file_exists tmp);
      Alcotest.(check int)
        (Printf.sprintf "all %d records flushed without close" Obs.Trace.flush_interval)
        Obs.Trace.flush_interval (count_lines tmp);
      Obs.Trace.event "test/straggler" ();
      Obs.Trace.flush ();
      Alcotest.(check int) "explicit flush pushes the straggler"
        (Obs.Trace.flush_interval + 1) (count_lines tmp);
      Obs.Trace.close ();
      Alcotest.(check bool) ".tmp renamed away on close" false (Sys.file_exists tmp);
      Alcotest.(check int) "final file complete" (Obs.Trace.flush_interval + 1)
        (count_lines path))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_progress_renders_and_off_is_silent () =
  let path = Filename.temp_file "dht_rcm_test" ".progress" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_mode Obs.Progress.Off;
      Obs.Progress.set_channel stderr;
      Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Progress.set_channel oc;
      Obs.Progress.set_mode Obs.Progress.On;
      Obs.Progress.start ~label:"xor" ~groups:[ ("q=0.1", 2) ] ~total:2 ();
      Alcotest.(check bool) "active while started" true (Obs.Progress.active ());
      Obs.Progress.tick ~group:"q=0.1" ();
      Obs.Progress.note_retry ();
      Obs.Progress.tick ~group:"q=0.1" ();
      Obs.Progress.finish ();
      Alcotest.(check bool) "inactive after finish" false (Obs.Progress.active ());
      close_out oc;
      let out = read_file path in
      Alcotest.(check bool) "painted the completion state" true
        (contains_substring out "2/2");
      Alcotest.(check bool) "shows the label" true (contains_substring out "xor");
      Alcotest.(check bool) "shows the retry count" true (contains_substring out "retried 1");
      Alcotest.(check bool) "carriage-return repaints, no newline spam" false
        (contains_substring out "\n");
      (* Off mode: the same sequence must write nothing at all. *)
      let oc = open_out path in
      Obs.Progress.set_channel oc;
      Obs.Progress.set_mode Obs.Progress.Off;
      Obs.Progress.start ~total:2 ();
      Obs.Progress.tick ();
      Obs.Progress.finish ();
      close_out oc;
      Alcotest.(check string) "Off writes nothing" "" (read_file path))

let test_manifest_roundtrip () =
  let dir = Filename.temp_file "dht_rcm_test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let manifest_path = Filename.concat dir "manifest.json" in
  let artefact = Filename.concat dir "out.csv" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ manifest_path; artefact ];
      Sys.rmdir dir)
    (fun () ->
      let oc = open_out artefact in
      output_string oc "x,y\n1,2\n";
      close_out oc;
      Obs.Manifest.start ~argv:[ "dhtlab"; "test" ] ~path:manifest_path;
      Alcotest.(check bool) "active after start" true (Obs.Manifest.active ());
      Obs.Manifest.note "seed" (Obs.Manifest.Int 42);
      Obs.Manifest.note "seed" (Obs.Manifest.Int 7) (* last write wins *);
      Obs.Manifest.note "geometries" (Obs.Manifest.Strings [ "xor"; "ring" ]);
      Obs.Manifest.add_artefact ~kind:"csv" artefact;
      Obs.Manifest.add_artefact ~kind:"csv" artefact (* deduped *);
      Obs.Manifest.add_artefact ~kind:"checkpoint" (Filename.concat dir "missing.jsonl");
      Obs.Manifest.finish ~exit_status:0;
      Alcotest.(check bool) "inactive after finish" false (Obs.Manifest.active ());
      Alcotest.(check bool) "no .tmp left" false
        (Sys.file_exists (manifest_path ^ ".tmp"));
      let json = Obs.Tiny_json.parse (read_file manifest_path) in
      let open Obs.Tiny_json in
      let get key = Option.get (member key json) in
      Alcotest.(check (option int)) "v" (Some 1) (to_int (get "v"));
      Alcotest.(check (option string)) "kind" (Some "dht_rcm-manifest") (to_str (get "kind"));
      Alcotest.(check (option int)) "exit_status" (Some 0) (to_int (get "exit_status"));
      Alcotest.(check bool) "hostname recorded" true (to_str (get "hostname") <> None);
      Alcotest.(check (option string)) "ocaml_version" (Some Sys.ocaml_version)
        (to_str (get "ocaml_version"));
      let notes = get "notes" in
      Alcotest.(check (option int)) "last note wins" (Some 7)
        (to_int (Option.get (member "seed" notes)));
      (match to_list (Option.get (member "geometries" notes)) with
      | Some [ a; b ] ->
          Alcotest.(check (option string)) "strings note" (Some "xor") (to_str a);
          Alcotest.(check (option string)) "strings note" (Some "ring") (to_str b)
      | _ -> Alcotest.fail "geometries note not a 2-element array");
      match to_list (get "artefacts") with
      | Some [ csv; missing ] ->
          Alcotest.(check (option string)) "artefact path" (Some artefact)
            (to_str (Option.get (member "path" csv)));
          Alcotest.(check (option int)) "artefact bytes" (Some 8)
            (to_int (Option.get (member "bytes" csv)));
          Alcotest.(check (option string)) "artefact md5 matches Digest"
            (Some (Digest.to_hex (Digest.file artefact)))
            (to_str (Option.get (member "md5" csv)));
          (match member "exists" missing with
          | Some (Bool false) -> ()
          | _ -> Alcotest.fail "missing artefact not recorded with exists:false")
      | _ -> Alcotest.fail "expected exactly two artefacts (duplicate not deduped?)")

let test_heartbeat_beats_and_stops () =
  Alcotest.check_raises "non-positive interval rejected"
    (Invalid_argument "Obs.Heartbeat.start: interval must be positive") (fun () ->
      Obs.Heartbeat.start ~interval_s:0.0 (fun () -> ()));
  let beats = Atomic.make 0 in
  Obs.Heartbeat.start ~interval_s:0.02 (fun () -> Atomic.incr beats);
  Alcotest.(check bool) "active while running" true (Obs.Heartbeat.active ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get beats < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Alcotest.(check bool) "beat at least twice" true (Atomic.get beats >= 2);
  Obs.Heartbeat.stop ();
  Alcotest.(check bool) "inactive after stop" false (Obs.Heartbeat.active ());
  let after = Atomic.get beats in
  Unix.sleepf 0.06;
  Alcotest.(check int) "no beat after stop" after (Atomic.get beats);
  Obs.Heartbeat.stop () (* idempotent *)

let suite =
  [
    ("metrics: counters", `Quick, test_counters);
    ("metrics: histograms", `Quick, test_histograms);
    ("metrics: disabled is a no-op", `Quick, test_disabled_is_noop);
    ("metrics: json snapshot shape", `Quick, test_json_snapshot_shape);
    ("metrics: non-finite values render as null", `Quick, test_json_non_finite_is_null);
    ("metrics: quantiles at count 0 and 1", `Quick, test_quantiles_empty_and_singleton);
    ("metrics: reset preserves registration", `Quick, test_reset_preserves_registration);
    ("metrics: prometheus exposition", `Quick, test_prometheus_renderer);
    ("obs: instrumentation preserves results", `Quick, test_instrumentation_preserves_results);
    ("trace: writes one JSON object per line", `Quick, test_trace_writes_jsonl);
    ("trace: disabled span runs body", `Quick, test_disabled_span_runs_body);
    ("trace: flushes every K records", `Quick, test_trace_flushes_periodically);
    ("progress: renders On, silent Off", `Quick, test_progress_renders_and_off_is_silent);
    ("manifest: roundtrip with checksums", `Quick, test_manifest_roundtrip);
    ("heartbeat: beats and stops", `Quick, test_heartbeat_beats_and_stops);
  ]
