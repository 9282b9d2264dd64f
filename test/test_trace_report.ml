(* Obs.Trace_reader: loading JSONL traces back, the aggregates behind
   [dhtlab trace report], and the Chrome trace-event conversion. The
   fixtures are synthetic records with hand-computable aggregates. *)

let contains_substring haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let fixture_lines =
  [
    {|{"ts": 12.0, "kind": "span", "name": "overlay/build", "domain": 0, "dur_s": 2.0, "attrs": {"geometry": "xor", "bits": 8}}|};
    {|{"ts": 13.0, "kind": "span", "name": "overlay/build", "domain": 1, "dur_s": 1.0}|};
    {|{"ts": 13.5, "kind": "span", "name": "failure/inject", "domain": 0, "dur_s": 0.25}|};
    {|{"ts": 14.0, "kind": "event", "name": "estimate/trial", "domain": 0, "attrs": {"geometry": "xor", "hops": "1:2,3:4"}}|};
    {|{"ts": 14.5, "kind": "event", "name": "estimate/trial", "domain": 1, "attrs": {"geometry": "xor", "hops": "3:1"}}|};
    {|{"ts": 14.6, "kind": "event", "name": "estimate/trial", "domain": 1, "attrs": {"geometry": "ring", "hops": "2:5"}}|};
    {|{"ts": 15.0, "kind": "event", "name": "heartbeat", "domain": 0}|};
  ]

let write_fixture ?(extra = []) () =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    (fixture_lines @ extra);
  close_out oc;
  path

let with_fixture ?extra f =
  let path = write_fixture ?extra () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let load path = (Obs.Trace_reader.load path).Obs.Trace_reader.records

let test_load_shape () =
  with_fixture (fun path ->
      let records = load path in
      Alcotest.(check int) "all records read" 7 (List.length records);
      let first = List.hd records in
      Alcotest.(check string) "kind" "span" first.Obs.Trace_reader.kind;
      Alcotest.(check string) "name" "overlay/build" first.Obs.Trace_reader.name;
      Alcotest.(check int) "domain" 0 first.Obs.Trace_reader.domain;
      Alcotest.(check (option (float 1e-12))) "dur_s" (Some 2.0)
        first.Obs.Trace_reader.dur_s;
      (match List.assoc_opt "geometry" first.Obs.Trace_reader.attrs with
      | Some (Obs.Tiny_json.Str "xor") -> ()
      | _ -> Alcotest.fail "geometry attr lost");
      let last = List.nth records 6 in
      Alcotest.(check string) "events carry no dur_s" "event" last.Obs.Trace_reader.kind;
      Alcotest.(check (option (float 0.0))) "no dur_s on event" None
        last.Obs.Trace_reader.dur_s)

let test_analyze_aggregates () =
  with_fixture (fun path ->
      let r = Obs.Trace_reader.analyze ~top:2 (load path) in
      Alcotest.(check int) "total" 7 r.Obs.Trace_reader.total_records;
      Alcotest.(check int) "spans" 3 r.Obs.Trace_reader.span_records;
      (* The heartbeat record of an older trace is an ordinary event. *)
      Alcotest.(check int) "events" 4 r.Obs.Trace_reader.event_records;
      (* From the first span's start (it ends at 12.0 after 2.0 s) to the
         last record at 15.0. *)
      Alcotest.(check (float 1e-9)) "wall clock span" 5.0 r.Obs.Trace_reader.wall_s;
      (* Spans sorted by total time descending: overlay/build (3.0 s)
         before failure/inject (0.25 s). *)
      (match r.Obs.Trace_reader.spans with
      | [ (n1, s1); (n2, s2) ] ->
          Alcotest.(check string) "hottest span first" "overlay/build" n1;
          Alcotest.(check int) "count" 2 s1.Obs.Trace_reader.sp_count;
          Alcotest.(check (float 1e-9)) "total" 3.0 s1.Obs.Trace_reader.sp_total_s;
          Alcotest.(check (float 1e-9)) "min" 1.0 s1.Obs.Trace_reader.sp_min_s;
          Alcotest.(check (float 1e-9)) "max" 2.0 s1.Obs.Trace_reader.sp_max_s;
          Alcotest.(check (float 1e-9)) "p99 = max on two samples" 2.0
            s1.Obs.Trace_reader.sp_p99_s;
          Alcotest.(check string) "second span" "failure/inject" n2;
          Alcotest.(check int) "second count" 1 s2.Obs.Trace_reader.sp_count
      | other -> Alcotest.fail (Printf.sprintf "expected 2 span rows, got %d" (List.length other)));
      (* Domains sorted by id; busy = summed span durations. *)
      (match r.Obs.Trace_reader.domains with
      | [ d0; d1 ] ->
          Alcotest.(check int) "domain 0 id" 0 d0.Obs.Trace_reader.dom_id;
          Alcotest.(check int) "domain 0 spans" 2 d0.Obs.Trace_reader.dom_spans;
          Alcotest.(check (float 1e-9)) "domain 0 busy" 2.25 d0.Obs.Trace_reader.dom_busy_s;
          Alcotest.(check (float 1e-9)) "domain 1 busy" 1.0 d1.Obs.Trace_reader.dom_busy_s
      | other -> Alcotest.fail (Printf.sprintf "expected 2 domains, got %d" (List.length other)));
      (* imbalance = max busy / mean busy = 2.25 / 1.625. *)
      (match r.Obs.Trace_reader.imbalance with
      | Some v -> Alcotest.(check (float 1e-9)) "imbalance" (2.25 /. 1.625) v
      | None -> Alcotest.fail "imbalance missing");
      (* Hop histograms merge per geometry across trial events. *)
      (match List.assoc_opt "xor" r.Obs.Trace_reader.hops with
      | Some pairs ->
          Alcotest.(check (list (pair int int))) "xor hops merged" [ (1, 2); (3, 5) ] pairs
      | None -> Alcotest.fail "xor hops missing");
      (match List.assoc_opt "ring" r.Obs.Trace_reader.hops with
      | Some pairs -> Alcotest.(check (list (pair int int))) "ring hops" [ (2, 5) ] pairs
      | None -> Alcotest.fail "ring hops missing");
      (* top-k slowest, descending. *)
      match r.Obs.Trace_reader.slowest with
      | [ (d1, r1); (d2, _) ] ->
          Alcotest.(check (float 1e-9)) "slowest first" 2.0 d1;
          Alcotest.(check string) "slowest name" "overlay/build" r1.Obs.Trace_reader.name;
          Alcotest.(check (float 1e-9)) "second slowest" 1.0 d2
      | other -> Alcotest.fail (Printf.sprintf "expected top 2, got %d" (List.length other)))

let test_report_rendering () =
  with_fixture (fun path ->
      let text =
        Fmt.str "%a" Obs.Trace_reader.pp_report (Obs.Trace_reader.analyze (load path))
      in
      List.iter
        (fun section ->
          Alcotest.(check bool) ("report has " ^ section) true
            (contains_substring text section))
        [
          "==== trace ====";
          "==== spans ====";
          "==== domains ====";
          "==== hops (per geometry) ====";
          "==== slowest spans ====";
          "overlay/build";
          "imbalance";
          "xor";
        ])

(* A line cut off mid-record (what a SIGKILL leaves in the .tmp) must
   be a loud Corrupt by default and a counted skip with
   [allow_partial]. *)
let test_partial_traces () =
  let torn = {|{"ts": 16.0, "kind": "ev|} in
  with_fixture ~extra:[ torn ] (fun path ->
      (match Obs.Trace_reader.load path with
      | _ -> Alcotest.fail "torn line did not raise Corrupt"
      | exception Obs.Trace_reader.Corrupt msg ->
          Alcotest.(check bool) "message names the line" true
            (contains_substring msg "line 8"));
      let { Obs.Trace_reader.records; skipped } =
        Obs.Trace_reader.load ~allow_partial:true path
      in
      Alcotest.(check int) "good records kept" 7 (List.length records);
      Alcotest.(check int) "torn line counted" 1 skipped)

let test_missing_required_field () =
  with_fixture ~extra:[ {|{"ts": 16.0, "name": "no-kind", "domain": 0}|} ] (fun path ->
      match Obs.Trace_reader.load path with
      | _ -> Alcotest.fail "record without kind did not raise Corrupt"
      | exception Obs.Trace_reader.Corrupt _ -> ())

let test_chrome_export () =
  with_fixture (fun path ->
      let records = load path in
      let out = Filename.temp_file "dht_rcm_test" ".chrome.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let oc = open_out out in
          Obs.Trace_reader.export_chrome records oc;
          close_out oc;
          let ic = open_in_bin out in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let open Obs.Tiny_json in
          let json = parse text in
          Alcotest.(check (option string)) "time unit" (Some "ms")
            (Option.bind (member "displayTimeUnit" json) to_str);
          let events = Option.get (to_list (Option.get (member "traceEvents" json))) in
          Alcotest.(check int) "one trace event per record" 7 (List.length events);
          let get_str k e = Option.bind (member k e) to_str in
          let get_num k e = Option.bind (member k e) to_num in
          let completes, instants =
            List.partition (fun e -> get_str "ph" e = Some "X") events
          in
          Alcotest.(check int) "spans become complete events" 3 (List.length completes);
          Alcotest.(check int) "events become instants" 4 (List.length instants);
          List.iter
            (fun e ->
              Alcotest.(check (option (float 1e-9))) "pid" (Some 1.0) (get_num "pid" e);
              (match get_num "ts" e with
              | Some ts -> Alcotest.(check bool) "ts rebased to >= 0" true (ts >= 0.0)
              | None -> Alcotest.fail "event without ts"))
            events;
          (* Earliest span start (overlay/build: 12.0 - 2.0 = 10.0) is
             the origin, so that span's ts is 0 and dur is 2 s in µs. *)
          let first =
            List.find (fun e -> get_str "name" e = Some "overlay/build") completes
          in
          Alcotest.(check (option (float 1e-6))) "origin span at ts 0" (Some 0.0)
            (get_num "ts" first);
          Alcotest.(check (option (float 1e-3))) "duration in microseconds" (Some 2e6)
            (get_num "dur" first);
          (* Attrs ride along under args. *)
          match member "args" first with
          | Some args -> (
              match Option.bind (member "geometry" args) to_str with
              | Some "xor" -> ()
              | _ -> Alcotest.fail "geometry attr missing from args")
          | None -> Alcotest.fail "span attrs not exported under args"))

(* Write an arbitrary hand-built trace (not the shared fixture). *)
let with_lines lines f =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      f path)

(* Nearest-rank quantiles are exact, so the degenerate span sets have
   hand-checkable answers: a singleton is its own p50 and p99; on two
   elements rank(0.5 * 2) = 1 selects the *upper* element for p50. *)
let span_stats path =
  match (Obs.Trace_reader.analyze (load path)).Obs.Trace_reader.spans with
  | [ (_, s) ] -> s
  | other -> Alcotest.failf "expected one span row, got %d" (List.length other)

let test_quantile_singleton () =
  with_lines
    [ {|{"ts": 10.0, "kind": "span", "name": "solo", "domain": 0, "dur_s": 3.0}|} ]
    (fun path ->
      let s = span_stats path in
      Alcotest.(check int) "count" 1 s.Obs.Trace_reader.sp_count;
      Alcotest.(check (float 1e-12)) "p50 = the sample" 3.0 s.Obs.Trace_reader.sp_p50_s;
      Alcotest.(check (float 1e-12)) "p99 = the sample" 3.0 s.Obs.Trace_reader.sp_p99_s;
      Alcotest.(check (float 1e-12)) "min = the sample" 3.0 s.Obs.Trace_reader.sp_min_s;
      Alcotest.(check (float 1e-12)) "max = the sample" 3.0 s.Obs.Trace_reader.sp_max_s)

let test_quantile_two_elements () =
  with_lines
    [
      {|{"ts": 10.0, "kind": "span", "name": "duo", "domain": 0, "dur_s": 1.0}|};
      {|{"ts": 11.0, "kind": "span", "name": "duo", "domain": 1, "dur_s": 2.0}|};
    ]
    (fun path ->
      let s = span_stats path in
      Alcotest.(check int) "count" 2 s.Obs.Trace_reader.sp_count;
      Alcotest.(check (float 1e-12)) "p50 is the upper element" 2.0
        s.Obs.Trace_reader.sp_p50_s;
      Alcotest.(check (float 1e-12)) "p99 is the upper element" 2.0
        s.Obs.Trace_reader.sp_p99_s;
      Alcotest.(check (float 1e-12)) "min" 1.0 s.Obs.Trace_reader.sp_min_s;
      Alcotest.(check (float 1e-12)) "max" 2.0 s.Obs.Trace_reader.sp_max_s;
      Alcotest.(check (float 1e-12)) "total" 3.0 s.Obs.Trace_reader.sp_total_s)

(* A non-finite duration or attr (JSON "1e999" parses to infinity)
   must export as null, never as the bare tokens "inf"/"nan", which
   are not JSON and make chrome://tracing reject the whole file. *)
let test_chrome_export_non_finite () =
  with_lines
    [
      {|{"ts": 5.0, "kind": "span", "name": "weird", "domain": 0, "dur_s": 1e999, "attrs": {"ratio": 1e999, "skew": -1e999, "ok": 2.5}}|};
      {|{"ts": 6.0, "kind": "event", "name": "fine", "domain": 0}|};
    ]
    (fun path ->
      let records = load path in
      let out = Filename.temp_file "dht_rcm_test" ".chrome.json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let oc = open_out out in
          Obs.Trace_reader.export_chrome records oc;
          close_out oc;
          let ic = open_in_bin out in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Alcotest.(check bool) "no inf token" false (contains_substring text "inf");
          Alcotest.(check bool) "no nan token" false (contains_substring text "nan");
          let open Obs.Tiny_json in
          (* Must still parse as JSON at all. *)
          let json = parse text in
          let events = Option.get (to_list (Option.get (member "traceEvents" json))) in
          Alcotest.(check int) "both events exported" 2 (List.length events);
          let weird =
            List.find
              (fun e -> Option.bind (member "name" e) to_str = Some "weird")
              events
          in
          Alcotest.(check bool) "infinite dur is null" true
            (member "dur" weird = Some Null);
          (match member "args" weird with
          | Some args ->
              Alcotest.(check bool) "infinite attr is null" true
                (member "ratio" args = Some Null);
              Alcotest.(check bool) "-infinite attr is null" true
                (member "skew" args = Some Null);
              Alcotest.(check (option (float 1e-12))) "finite attr survives"
                (Some 2.5)
                (Option.bind (member "ok" args) to_num)
          | None -> Alcotest.fail "args lost");
          let fine =
            List.find
              (fun e -> Option.bind (member "name" e) to_str = Some "fine")
              events
          in
          match Option.bind (member "ts" fine) to_num with
          | Some ts -> Alcotest.(check bool) "finite event ts kept" true (Float.is_finite ts)
          | None -> Alcotest.fail "finite event lost its ts"))

let test_empty_trace () =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Obs.Trace_reader.analyze (load path) in
      Alcotest.(check int) "no records" 0 r.Obs.Trace_reader.total_records;
      Alcotest.(check (float 0.0)) "no wall clock" 0.0 r.Obs.Trace_reader.wall_s;
      Alcotest.(check bool) "no imbalance" true (r.Obs.Trace_reader.imbalance = None);
      (* Rendering an empty report must not raise. *)
      ignore (Fmt.str "%a" Obs.Trace_reader.pp_report r))

(* End to end with the real writer: what Obs.Trace emits must round-trip
   through the reader without loss. *)
let test_roundtrip_with_writer () =
  let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Helpers.with_trace path (fun () ->
          ignore
            (Obs.Trace.span "test/work"
               ~attrs:[ ("geometry", Obs.Trace.String "xor"); ("n", Obs.Trace.Int 3) ]
               (fun () -> 1 + 1));
          Obs.Trace.event "estimate/trial"
            ~attrs:
              [ ("geometry", Obs.Trace.String "xor"); ("hops", Obs.Trace.String "2:7") ]
            ());
      let records = load path in
      Alcotest.(check int) "both records back" 2 (List.length records);
      let r = Obs.Trace_reader.analyze records in
      Alcotest.(check int) "span seen" 1 r.Obs.Trace_reader.span_records;
      match List.assoc_opt "xor" r.Obs.Trace_reader.hops with
      | Some [ (2, 7) ] -> ()
      | _ -> Alcotest.fail "hops attr did not round-trip")

(* Corruption: a trace written by Obs.Trace, its names and attrs full of
   escapes and control bytes, then cut at every byte and flipped at
   every byte. A cut trace loads or fails with [Corrupt] only, and a
   partial load keeps every complete line in order; a flipped trace
   loads or fails with [Corrupt]; every damaged line either parses or
   fails with [Tiny_json.Error]. *)
let trace_corruption =
  let text = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; '\t'; '\000'; '\031'; '\127'; '\200'; '/' ]) (int_range 0 6)) in
  let value =
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> Obs.Trace.String s) text;
          map (fun i -> Obs.Trace.Int i) (int_range (-1000) 1000);
          map (fun x -> Obs.Trace.Float x) (float_range (-1e6) 1e6);
          map (fun b -> Obs.Trace.Bool b) bool;
        ])
  in
  let record = QCheck2.Gen.(triple bool text (list_size (int_range 0 3) (pair text value))) in
  Helpers.qcheck ~count:25 "trace-reader: cut or flipped traces fail cleanly"
    QCheck2.Gen.(pair (list_size (int_range 1 5) record) (int_range 1 255))
    (fun (spec, flip) ->
      let path = Filename.temp_file "dht_rcm_test" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Helpers.with_trace path (fun () ->
              List.iter
                (fun (is_span, name, attrs) ->
                  if is_span then Obs.Trace.span name ~attrs ignore
                  else Obs.Trace.event name ~attrs ())
                spec);
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          let full = load path in
          let names = List.map (fun r -> r.Obs.Trace_reader.name) full in
          if names <> List.map (fun (_, name, _) -> name) spec then
            QCheck2.Test.fail_report "names do not round-trip";
          let write s =
            let oc = open_out_bin path in
            output_string oc s;
            close_out oc
          in
          let clean what s =
            write s;
            (match Obs.Trace_reader.load path with
            | _ -> ()
            | exception Obs.Trace_reader.Corrupt _ -> ()
            | exception e -> QCheck2.Test.fail_reportf "%s: load raised %s" what (Printexc.to_string e));
            List.iter
              (fun line ->
                match Obs.Tiny_json.parse line with
                | _ -> ()
                | exception Obs.Tiny_json.Error _ -> ()
                | exception e ->
                    QCheck2.Test.fail_reportf "%s: parse raised %s" what (Printexc.to_string e))
              (String.split_on_char '\n' s)
          in
          let rec prefix n = function
            | [] -> []
            | x :: rest -> if n = 0 then [] else x :: prefix (n - 1) rest
          in
          for cut = 0 to String.length bytes do
            let s = String.sub bytes 0 cut in
            clean (Printf.sprintf "cut at %d" cut) s;
            let complete = List.length (String.split_on_char '\n' s) - 1 in
            let kept = (Obs.Trace_reader.load ~allow_partial:true path).Obs.Trace_reader.records in
            if kept <> prefix complete full && kept <> prefix (complete + 1) full then
              QCheck2.Test.fail_reportf "cut at %d kept %d of %d complete lines" cut
                (List.length kept) complete
          done;
          for i = 0 to String.length bytes - 1 do
            let s = Bytes.of_string bytes in
            Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor flip));
            clean (Printf.sprintf "flip at %d" i) (Bytes.to_string s)
          done;
          true))

let suite =
  [
    ("trace-reader: loads records", `Quick, test_load_shape);
    ("trace-reader: aggregates", `Quick, test_analyze_aggregates);
    ("trace-reader: report rendering", `Quick, test_report_rendering);
    ("trace-reader: partial traces", `Quick, test_partial_traces);
    ("trace-reader: missing field is corrupt", `Quick, test_missing_required_field);
    ("trace-reader: chrome export", `Quick, test_chrome_export);
    ("trace-reader: quantiles on a singleton", `Quick, test_quantile_singleton);
    ("trace-reader: quantiles on two elements", `Quick, test_quantile_two_elements);
    ("trace-reader: chrome export of non-finite values", `Quick,
     test_chrome_export_non_finite);
    ("trace-reader: empty trace", `Quick, test_empty_trace);
    ("trace-reader: round-trips the writer", `Quick, test_roundtrip_with_writer);
    trace_corruption;
  ]
