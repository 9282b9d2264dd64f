(* The benchmark driver: runs one workload for a fixed wall-clock budget
   and prints, as its last stdout line, one JSON object with the
   end-to-end metrics ([--trace 0]) or the per-layer metrics
   ([--trace 1]). See README.md in this directory for the workloads,
   the metrics and how they relate.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 *)

let workloads =
  [
    ("sweep-d20", Sweep_d20.make);
    ("route-d20", Route_d20.make);
    ("churn", Churn_wl.make);
    ("storage", Storage_wl.make);
  ]

let geometry_names = List.map Rcm.Geometry.name Rcm.Geometry.all_default
let each prefix unit = List.map (fun g -> (prefix ^ "." ^ g, unit)) geometry_names

let end_to_end =
  [ ("setup_s", "s"); ("job_s", "s"); ("ops_per_s", "1/s"); ("cpu_s", "s"); ("peak_rss_mb", "MiB") ]

let per_layer =
  each "overlay.build_s" "s"
  @ [ ("overlay.builds", "count") ]
  @ each "overlay.table_mb" "MiB"
  @ [ ("overlay.failure_sample_s", "s"); ("overlay.survivors_s", "s") ]
  @ each "routing.batch_s" "s" @ each "routing.routes_per_s" "1/s" @ each "routing.hops" "count"
  @ [ ("sim.tally_s", "s") ]
  @ each "sim.session_churn_s" "s" @ each "sim.events" "count"
  @ [
      ("overlay.sparse_build_s", "s");
      ("storage.create_s", "s");
      ("storage.survival_s", "s");
      ("storage.read_s", "s");
      ("storage.probe_routes", "count");
      ("storage.repair_routes", "count");
      ("storage.repair_transfers", "count");
      ("unattributed_s", "s");
      ("trace_overhead_s", "s");
      ("host.mem_ns", "ns");
      ("host.alu_ns", "ns");
    ]

(* The root span of a traced repetition: its self time is the harness's
   own, charged to no layer. *)
let root_metric = "job"

let min_setup_spawns = 5
let max_setup_spawns = 15
let setup_budget_s = 1.
let min_reps = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fastest = List.fold_left Float.min Float.infinity

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let usage () =
  prerr_endline
    ("usage: perfbench.exe --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref false in
  let setup_only = ref false and host_probe = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--setup-only" :: rest -> setup_only := true; go rest
    | "--host-probe" :: rest -> host_probe := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !host_probe then begin
    Host.serve ();
    exit 0
  end;
  match (List.assoc_opt !workload workloads, !seed) with
  | Some _, Some seed ->
      { workload = !workload; seed; seconds = !seconds; trace = !trace; setup_only = !setup_only }
  | _ -> usage ()

(* The probe reading taken since the last timed stretch, if any:
   consecutive timed stretches share the reading between them. *)
let last_reading = ref None

(* Runs [f] between two probe readings and returns its result, wall
   and CPU time, and the [Host.scale] factor of those two readings. *)
let timed host f =
  let before = match !last_reading with Some r -> r | None -> Host.read host in
  let c0 = cpu_now () and t0 = now () in
  let r = f () in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let after = Host.read host in
  last_reading := Some after;
  (r, wall, cpu, Host.scale ~before ~after)

(* Set-up time as a fresh process sees it: exec, runtime and library
   initialisation, then the workload's own set-up — so work moved into
   module initialisation shows as well as work moved into [setup].
   Median of the host-scaled times of child processes, each waited for:
   at least [min_setup_spawns], and more (up to [max_setup_spawns])
   while they and their probe readings have taken less than
   [setup_budget_s] in total. *)
let spawned_setup_s a host =
  let run () =
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-only"; "--workload"; a.workload; "--seed";
           string_of_int a.seed |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "set-up child process failed"
  in
  let t0 = now () in
  let rec go acc =
    let n = List.length acc in
    if n >= max_setup_spawns || (n >= min_setup_spawns && now () -. t0 >= setup_budget_s) then
      median acc
    else
      let (), wall, _, scale = timed host run in
      go ((wall *. scale) :: acc)
  in
  go []

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
       metrics)

(* Traces and the run log go here, relative to the checkout root. *)
let out_dir = ".perfbench-out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* Runs the workload for the budget and returns the result line and
   whether every check passed. *)
let measure a (Wl.Workload w) host =
  let setup_s = spawned_setup_s a host in
  let setup_spans = Spans.create () in
  w.setup (if a.trace then Some setup_spans else None);
  let reference, first_checks = w.first () in
  let ops = w.ops reference in
  (* Timed repetitions until the budget is spent. A traced run
     alternates untraced and traced repetitions, swapping their order
     each round, so both see the same phases of the host. *)
  let walls = ref [] and scaled_walls = ref [] and scaled_cpus = ref [] in
  let traces = ref [] and mismatches = ref 0 in
  let untraced () =
    let r, wall, cpu, scale = timed host w.run in
    walls := wall :: !walls;
    scaled_walls := (wall *. scale) :: !scaled_walls;
    scaled_cpus := (cpu *. scale) :: !scaled_cpus;
    mismatches := !mismatches + w.diff reference r
  in
  let traced () =
    let spans = Spans.create () in
    let r, wall, _, scale =
      timed host (fun () -> Spans.span spans ~metric:root_metric "job" (fun () -> w.run_traced spans))
    in
    mismatches := !mismatches + w.diff reference r;
    let rollup = Spans.rollup spans in
    Hashtbl.filter_map_inplace (fun _ s -> Some (s *. scale)) rollup;
    traces := (wall *. scale, rollup, spans, r) :: !traces
  in
  last_reading := None;
  let deadline = now () +. a.seconds in
  let rec loop i =
    (if not a.trace then untraced ()
     else if i mod 2 = 0 then begin
       untraced ();
       traced ()
     end
     else begin
       traced ();
       untraced ()
     end);
    if now () < deadline || i + 1 < min_reps then loop (i + 1)
  in
  loop 0;
  let checks = first_checks @ w.checks reference in
  let peak_mb =
    match Obs.Rss.peak_kb () with Some kb -> float_of_int kb /. 1024. | None -> Float.nan
  in
  let readings = Host.readings host in
  let mem_ns = median (List.map (fun r -> r.Host.mem_ns) readings) in
  let alu_ns = median (List.map (fun r -> r.Host.alu_ns) readings) in
  (* The host's speed drifts in phases of seconds to minutes, and the
     probe drifts with it: the end-to-end times are the median over
     repetitions of each one's time scaled by the probe readings on
     either side of it. *)
  let job_s = median !scaled_walls in
  let traced_walls = List.map (fun (t, _, _, _) -> t) !traces in
  let reps = List.length !walls + List.length !traces + 1 in
  let check_ops = List.fold_left (fun n c -> n + c.Wl.attempted) 0 checks in
  let failed_checks = List.filter (fun c -> c.Wl.failed > 0) checks in
  let failed = !mismatches + List.fold_left (fun n c -> n + c.Wl.failed) 0 failed_checks in
  List.iter
    (fun c -> Printf.eprintf "perfbench: check %s failed (%d of %d)\n" c.Wl.check c.failed c.attempted)
    failed_checks;
  if !mismatches > 0 then
    Printf.eprintf "perfbench: %d result items differ from the reference repetition\n" !mismatches;
  let metrics =
    if not a.trace then
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "setup_s" -> setup_s
            | "job_s" -> job_s
            | "ops_per_s" -> float_of_int ops /. job_s
            | "cpu_s" -> median !scaled_cpus
            | "peak_rss_mb" -> peak_mb
            | _ -> assert false
          in
          (name, unit, v))
        end_to_end
    else begin
      (* A layer's figure is the median over the traced repetitions of
         its host-scaled self time, plus the traced set-up (route-d20's
         builds, as measured). [unattributed_s] is [job_s] minus the
         layers' figures, so the two add up to the end-to-end job time. *)
      let names =
        List.sort_uniq compare
          (List.concat_map (fun (_, r, _, _) -> List.of_seq (Hashtbl.to_seq_keys r)) !traces)
      in
      let rollup = Hashtbl.create 64 in
      List.iter
        (fun m ->
          Hashtbl.replace rollup m
            (median
               (List.map (fun (_, r, _, _) -> Option.value ~default:0. (Hashtbl.find_opt r m)) !traces)))
        names;
      (* The trace file and the counts come from the traced repetition
         with the median time. *)
      let by_wall = List.sort (fun (x, _, _, _) (y, _, _, _) -> compare x y) !traces in
      let _, _, spans, result = List.nth by_wall (List.length by_wall / 2) in
      let layer_s = Hashtbl.fold (fun m s acc -> if m = root_metric then acc else acc +. s) rollup 0. in
      Hashtbl.iter
        (fun m s ->
          Hashtbl.replace rollup m (s +. Option.value ~default:0. (Hashtbl.find_opt rollup m)))
        (Spans.rollup setup_spans);
      let derived =
        w.counts result rollup
        @ [
            ("unattributed_s", job_s -. layer_s);
            ("trace_overhead_s", median traced_walls -. job_s);
            ("host.mem_ns", mem_ns);
            ("host.alu_ns", alu_ns);
          ]
      in
      Hashtbl.iter
        (fun m _ ->
          if m <> root_metric && not (List.mem_assoc m per_layer) then
            failwith ("span charged to an undeclared metric " ^ m))
        rollup;
      ensure_out_dir ();
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed) in
      Out_channel.with_open_text path (fun oc ->
          let run = Printf.sprintf "%s/%d" a.workload a.seed in
          Spans.write_jsonl setup_spans ~run oc;
          Spans.write_jsonl spans ~run oc);
      Printf.eprintf "perfbench: trace written to %s\n" path;
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> Option.value ~default:0. (Hashtbl.find_opt rollup name)
          in
          (name, unit, v))
        per_layer
    end
  in
  let correct = failed = 0 in
  Printf.eprintf
    "perfbench: %s seed %d: %d untraced reps, job_s %.4f (as measured: min %.4f median %.4f max %.4f), traced median %.4f (scaled), setup_s %.4f; probe %.4f..%.4f s, mem %.2f ns, alu %.3f ns (medians)\n"
    a.workload a.seed (List.length !walls) job_s (fastest !walls) (median !walls)
    (List.fold_left Float.max 0. !walls)
    (median traced_walls)
    setup_s
    (fastest (List.map (fun r -> r.Host.total_s) readings))
    (List.fold_left (fun m r -> Float.max m r.Host.total_s) 0. readings)
    mem_ns alu_ns;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
      ((ops * reps) + check_ops)
      failed (json_metrics metrics)
  in
  (* Every run is logged with its probe readings, so a slow phase of the
     host is visible beside the figures it slowed. *)
  ensure_out_dir ();
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    (Filename.concat out_dir "runs.jsonl")
    (fun oc ->
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"reps\": %d, \"walls_s\": [%s], \"probe_s\": [%s], \"mem_ns\": %s, \"alu_ns\": %s, \"result\": %s}\n"
        a.workload a.seed a.trace (List.length !walls)
        (String.concat ", " (List.rev_map json_number !walls))
        (String.concat ", " (List.map (fun r -> json_number r.Host.total_s) readings))
        (json_number mem_ns) (json_number alu_ns) line);
  (line, correct)

let () =
  let a = parse_args () in
  let workload = (List.assoc a.workload workloads) ~seed:a.seed in
  if a.setup_only then begin
    let (Wl.Workload w) = workload in
    w.setup None;
    exit 0
  end;
  let host = Host.start () in
  let line, correct = Fun.protect ~finally:(fun () -> Host.stop host) (fun () -> measure a workload host) in
  print_endline line;
  exit (if correct then 0 else 1)
