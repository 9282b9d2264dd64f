(* dhtlab: command-line front end for the RCM analysis, the DHT
   simulator, and the figure-regeneration experiments. *)

open Cmdliner

(* --- Shared argument definitions ------------------------------------------ *)

let geometry_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Rcm.Geometry.of_string s) in
  Arg.conv (parse, Rcm.Geometry.pp)

let geometry_arg =
  (* Enumerated from the Geom registry so plugin geometries document
     themselves; see `dhtlab geometries` for the full table. *)
  let doc =
    let names = String.concat ", " (Geom.names ()) in
    let examples =
      Geom.all ()
      |> List.filter (fun g -> not g.Geom.builtin)
      |> List.map (fun g -> g.Geom.example)
    in
    Printf.sprintf
      "Routing geometry: %s (system names work too). Parameterised families take \
       colon-separated key=value pairs%s. See $(b,dhtlab geometries) for the registry."
      names
      (match examples with
      | [] -> ""
      | es -> Printf.sprintf ", e.g. %s" (String.concat ", " es))
  in
  Arg.(value & opt (some geometry_conv) None & info [ "g"; "geometry" ] ~docv:"GEOMETRY" ~doc)

let bits_arg ~default =
  let doc = "Identifier length d; the network has N = 2^d nodes." in
  Arg.(value & opt int default & info [ "d"; "bits" ] ~docv:"BITS" ~doc)

(* Mirrors the library's own checks (Exec.Pool.create's domain count,
   Sim.Checkpoint's flush interval, the trial and pair counts,
   Sim.Sweep.run's retry count) at argument-parsing time: --jobs 0,
   --pairs 0 or --trial-retries=-1 is a CLI error, not a silent
   fallback or an uncaught exception. *)
let int_at_least least what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= least -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be at least %d, got %d" what least n))
    | None ->
        Error (`Msg (Printf.sprintf "invalid %s %S (expected an integer >= %d)" what s least))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int_conv = int_at_least 1

let non_negative_int_conv = int_at_least 0

(* A failure probability, checked as the library checks it
   (Numerics.Prob.is_valid), so -q 1.5 or -q nan is a CLI error. *)
let prob_conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some p when Numerics.Prob.is_valid p -> Ok p
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "invalid probability %S (expected a number in [0, 1])" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let q_arg =
  let doc = "Uniform node failure probability." in
  Arg.(value & opt (some prob_conv) None & info [ "q" ] ~docv:"PROB" ~doc)

let trials_arg =
  let doc = "Independent overlay/failure trials." in
  Arg.(value & opt (positive_int_conv "trial count") 3 & info [ "trials" ] ~docv:"N" ~doc)

let pairs_arg =
  let doc = "Routed source/destination pairs per trial." in
  Arg.(value & opt (positive_int_conv "pair count") 2_000 & info [ "pairs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed (all outputs are deterministic in the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo trials (an integer >= 1). Defaults to \
     $(b,DHT_RCM_JOBS) when set to an integer >= 1 (invalid values are ignored with \
     a warning), otherwise to the machine's recommended domain count. Outputs are \
     bit-identical for every job count; 1 disables parallelism."
  in
  Arg.(value & opt (some (positive_int_conv "job count")) None
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_batch_arg =
  let doc =
    "Route pairs one at a time through the scalar router instead of the batched \
     per-geometry kernel (for $(b,storage): run the quorum reads one by one through \
     the OCaml sparse walks instead of the C read loop). The two paths are \
     bit-identical — same outcomes, hop counts, PRNG draws and stdout (pinned by the \
     test suite) — but the kernel is an order of magnitude faster, so this flag \
     exists for differential checks and as an escape hatch. The resolved choice lands \
     in the provenance manifest."
  in
  Arg.(value & flag & info [ "no-batch" ] ~doc)

let apply_batch no_batch =
  Routing.Route_batch.set_enabled (not no_batch);
  Obs.Manifest.note "batch" (Obs.Manifest.Bool (not no_batch))

(* Run [f] with a domain pool sized from --jobs / DHT_RCM_JOBS /
   Domain.recommended_domain_count, or with no pool when that size
   is 1 (the sequential path). The resolved count lands in the
   provenance manifest when one is open. *)
let with_jobs jobs f =
  let domains = match jobs with Some n -> n | None -> Exec.Pool.default_domains () in
  Obs.Manifest.note "jobs" (Obs.Manifest.Int domains);
  if domains <= 1 then f None else Exec.Pool.with_pool ~domains (fun pool -> f (Some pool))

(* --- Observability options (one shared block for every subcommand) --------- *)

type obs_opts = {
  metrics : bool;  (* human summary on stderr *)
  trace_out : string option;
  metrics_out : string option;  (* JSON snapshot sink *)
  manifest : string option;
  progress : bool option;  (* None = auto (TTY detection) *)
}

let metrics_arg =
  let doc =
    "Collect engine metrics (routing outcomes, cache effectiveness, per-domain task \
     counts, trial timings) and print a summary to stderr on exit. Observation only: \
     stdout and every simulated number are byte-identical with or without this flag."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Write a JSONL trace (one object per line: overlay-build, failure-injection and \
     estimation spans with wall-clock durations) to $(docv); analyse it afterwards with \
     $(b,dhtlab trace report). See README, \"Observability\", for the schema."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics snapshot as JSON to $(docv) when the run ends (atomically). \
     Implies metrics collection without the stderr summary."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let manifest_arg =
  let doc =
    "Write a JSON provenance manifest to $(docv) when the run ends: argv, resolved \
     jobs, seed and geometry parameters, hostname, OCaml version, wall-clock start/end, \
     exit status, and the path, size and MD5 checksum of every artefact the run \
     produced. $(b,export) writes one automatically."
  in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)

let progress_term =
  let progress =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Force the live progress line on, even when stderr is not a TTY.")
  in
  let no_progress =
    Arg.(value & flag
         & info [ "no-progress" ]
             ~doc:"Force the live progress line off (default: on iff stderr is a TTY).")
  in
  let resolve on off = if off then Some false else if on then Some true else None in
  Term.(const resolve $ progress $ no_progress)

let obs_term =
  let make metrics trace_out metrics_out manifest progress =
    { metrics; trace_out; metrics_out; manifest; progress }
  in
  Term.(
    const make $ metrics_arg $ trace_arg $ metrics_out_arg $ manifest_arg $ progress_term)

(* Enable the requested observability around [f]: metrics (stderr
   summary and/or JSON file), JSONL trace, live progress line and
   provenance manifest. Teardown runs on every exit path — normal
   return, cooperative cancellation, any other exception — in
   dependency order: erase the progress line, close the trace (rename
   .tmp into place), write the metrics file, print the summary, and
   only then finalise the manifest so its checksums cover the finished
   artefacts. Everything here observes the run: stdout and every
   exported artefact are byte-identical whatever combination of these
   options is enabled (pinned by test/test_cli.ml). *)
let with_obs opts f =
  if opts.metrics || opts.metrics_out <> None then Obs.Metrics.set_enabled true;
  Obs.Progress.set_mode
    (match opts.progress with
    | Some true -> Obs.Progress.On
    | Some false -> Obs.Progress.Off
    | None -> Obs.Progress.Auto);
  (match opts.manifest with
  | Some path -> Obs.Manifest.start ~argv:(Array.to_list Sys.argv) ~path
  | None -> ());
  (match opts.trace_out with
  | Some path ->
      Obs.Trace.open_file path;
      Obs.Manifest.add_artefact ~kind:"trace" path
  | None -> ());
  Option.iter (fun p -> Obs.Manifest.add_artefact ~kind:"metrics-json" p) opts.metrics_out;
  let finish exit_status =
    Obs.Progress.finish ();
    Obs.Progress.set_mode Obs.Progress.Off;
    Obs.Trace.close ();
    Option.iter
      (fun path ->
        Obs.Atomic_file.write path (fun oc -> output_string oc (Obs.Metrics.to_json ())))
      opts.metrics_out;
    if opts.metrics then Fmt.epr "%a@." Obs.Metrics.pp_summary ();
    Obs.Manifest.finish ~exit_status
  in
  match f () with
  | v ->
      finish 0;
      v
  | exception (Exec.Cancel.Cancelled as e) ->
      finish Exec.Cancel.exit_code;
      raise e
  | exception e ->
      finish 1;
      raise e

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let quick_arg =
  let doc = "Use the small/quick experiment configuration (d = 10, fewer samples)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let plot_arg =
  let doc = "Render an ASCII plot after the table." in
  Arg.(value & flag & info [ "plot" ] ~doc)

let default_q_grid = Experiments.Grid.fig6_q

let geometries_of_opt = function
  | Some g -> [ g ]
  | None -> Rcm.Geometry.all_default

let print_series ~csv series =
  if csv then print_string (Experiments.Series.to_csv series)
  else Fmt.pr "%a@." Experiments.Series.pp series

(* Print "dhtlab <cmd>: <msg>" on stderr and exit with [code]. *)
let die cmd code fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "dhtlab %s: %s@." cmd msg;
      exit code)
    fmt

(* --- analyze ----------------------------------------------------------------- *)

let analyze geometry bits q csv full =
  if bits < 1 then die "analyze" 2 "--bits %d: the identifier length must be at least 1" bits;
  let geometries = geometries_of_opt geometry in
  if full then
    List.iter (fun g -> Fmt.pr "%a@." Experiments.Report.pp (Experiments.Report.build ~bits g)) geometries
  else begin
    let qs = match q with Some q -> [ q ] | None -> default_q_grid in
    let series =
      Experiments.Series.tabulate
        ~title:(Printf.sprintf "Analytical routability, N=2^%d" bits)
        ~x_label:"q" ~x:qs
        (List.map
           (fun g -> (Rcm.Geometry.slug g, fun q -> Rcm.Model.routability g ~d:bits ~q))
           geometries)
    in
    print_series ~csv series
  end

let analyze_cmd =
  let doc = "Analytical RCM routability of one or all geometries." in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Print a full design brief per geometry (classification, envelope, hops).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(const analyze $ geometry_arg $ bits_arg ~default:16 $ q_arg $ csv_arg $ full)

(* --- simulate ----------------------------------------------------------------- *)

let fault_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Exec.Fault.parse s) in
  Arg.conv (parse, Exec.Fault.pp)

let inject_fault_arg =
  let doc =
    "Deterministically fail a seeded pseudo-random subset of trials (spec \
     $(b,trial:P:SEED) or $(b,trial:P:SEED:ATTEMPTS); also readable from \
     $(b,DHT_RCM_FAULT)). Chaos testing only: faulted trials are retried per \
     $(b,--trial-retries) and otherwise reported as failed."
  in
  let flag = Arg.(value & opt (some fault_conv) None & info [ "inject-fault" ] ~docv:"SPEC" ~doc) in
  (* The flag wins over DHT_RCM_FAULT. *)
  Term.(const (function Some _ as f -> f | None -> Exec.Fault.of_env ()) $ flag)

let retries_arg =
  let doc =
    "Retry a failing trial up to $(docv) times before recording it as failed. Retries \
     re-derive the trial's PRNG stream from its index, so a retried transient fault is \
     bit-identical to the attempt that failed."
  in
  Arg.(
    value & opt (non_negative_int_conv "retry count") 0 & info [ "trial-retries" ] ~docv:"N" ~doc)

let checkpoint_arg =
  let doc =
    "Record every completed trial to $(docv) (versioned JSONL, written atomically). \
     Combine with $(b,--resume) to continue an interrupted sweep."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Load the $(b,--checkpoint) file first and skip trials it already records. The \
     resumed run's output is byte-identical to an uninterrupted one."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let checkpoint_every_arg =
  let doc = "Trials (or points) between automatic checkpoint flushes (an integer >= 1)." in
  Arg.(value & opt (positive_int_conv "checkpoint interval") 8
       & info [ "checkpoint-every" ] ~docv:"K" ~doc)

type checkpoint_opts = { ck_path : string option; resume : bool; every : int }

let checkpoint_term =
  Term.(
    const (fun ck_path resume every -> { ck_path; resume; every })
    $ checkpoint_arg $ resume_arg $ checkpoint_every_arg)

let validate_or_die cmd check =
  match check () with () -> () | exception Invalid_argument msg -> die cmd 2 "%s" msg

(* Every geometry must fit [bits] before the first point runs
   (Rcm.Geometry.check_size, the rule the table builders apply). *)
let check_sizes cmd ~bits geometries =
  List.iter
    (fun g ->
      match Rcm.Geometry.check_size ~bits g with Ok () -> () | Error e -> die cmd 2 "%s" e)
    geometries

(* The setup and teardown the sweep commands share. Open the checkpoint
   ([--resume] loads it first; [ck] is [None] for a command without
   checkpoint options), install cancellation and run [f] under the
   observability options. A checkpoint that cannot be read exits 2; a
   point that exhausts its retries, or a file that cannot be written,
   exits 1 (sweeps flush their checkpoint before raising); an interrupt
   reports what the checkpoint holds and exits 130. *)
let run_sweep_cmd ~cmd ~unit ?ck obs f =
  let checkpoint =
    match ck with
    | None | Some { ck_path = None; resume = false; _ } -> None
    | Some { ck_path = None; resume = true; _ } ->
        die cmd 2 "--resume requires --checkpoint FILE"
    | Some { ck_path = Some path; resume; every } -> (
        let open_store = if resume then Sim.Checkpoint.load else Sim.Checkpoint.create in
        match open_store ~interval:every ~path () with
        | store -> Some store
        | exception Failure msg -> die cmd 2 "%s" msg)
  in
  Exec.Cancel.install ();
  match
    with_obs obs (fun () ->
        Option.iter
          (fun store -> Obs.Manifest.add_artefact ~kind:"checkpoint" (Sim.Checkpoint.path store))
          checkpoint;
        f checkpoint)
  with
  | () -> ()
  | exception Exec.Cancel.Cancelled -> (
      (* with_obs already closed the trace and the metrics file; the
         sweep flushed the checkpoint before unwinding. *)
      match (ck, checkpoint) with
      | _, Some store ->
          die cmd Exec.Cancel.exit_code "interrupted; %d completed %s checkpointed in %s"
            (Sim.Checkpoint.length store) unit (Sim.Checkpoint.path store)
      | Some _, None ->
          die cmd Exec.Cancel.exit_code "interrupted (no --checkpoint; completed %s discarded)"
            unit
      | None, None -> die cmd Exec.Cancel.exit_code "interrupted")
  | exception (Failure msg | Sys_error msg) -> die cmd 1 "%s" msg

(* CSV header plus one row per point, one JSON object per point, or the
   table. *)
let print_points ~csv ~json ~header ~row ~to_json pp points =
  if csv then begin
    print_endline header;
    List.iter (fun p -> print_endline (row p)) points
  end
  else if json then List.iter (fun p -> print_endline (to_json p)) points
  else pp points

let smoke_arg =
  let doc =
    "Tiny preset sweep for CI smoke and chaos tests: overrides $(b,--bits) to 8, \
     $(b,--trials) to 6 and $(b,--pairs) to 200."
  in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json_arg =
  let doc = "Emit one JSON object per grid point instead of the human-readable lines." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Record the simulation parameters the output depends on, so a
   manifest alone is enough to reproduce the run. No-ops without
   --manifest. *)
let note_sim_params ~subcommand ~geometries ~bits ~trials ~pairs ~seed ~qs =
  Obs.Manifest.note "subcommand" (Obs.Manifest.String subcommand);
  Obs.Manifest.note "geometries"
    (Obs.Manifest.Strings (List.map Rcm.Geometry.slug geometries));
  Obs.Manifest.note "bits" (Obs.Manifest.Int bits);
  Obs.Manifest.note "trials" (Obs.Manifest.Int trials);
  Obs.Manifest.note "pairs" (Obs.Manifest.Int pairs);
  Obs.Manifest.note "seed" (Obs.Manifest.Int seed);
  Obs.Manifest.note "qs"
    (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") qs))

let simulate geometry bits q trials pairs seed jobs no_batch obs csv json smoke retries fault
    ck =
  let bits, trials, pairs = if smoke then (8, 6, 200) else (bits, trials, pairs) in
  let geometries = geometries_of_opt geometry in
  check_sizes "simulate" ~bits geometries;
  let qs = match q with Some q -> [ q ] | None -> default_q_grid in
  (* The seed is a trial-key field and must survive a JSON double. *)
  if ck.ck_path <> None && not (Sim.Checkpoint.exact_int seed) then
    die "simulate" 2 "--seed %d cannot be checkpointed (it must lie within +-(2^53 - 1))"
      seed;
  run_sweep_cmd ~cmd:"simulate" ~unit:"trials" ~ck obs @@ fun checkpoint ->
  note_sim_params ~subcommand:"simulate" ~geometries ~bits ~trials ~pairs ~seed ~qs;
  apply_batch no_batch;
  with_jobs jobs (fun pool ->
      if csv then print_endline Sim.Estimate.csv_header;
      List.iter
        (fun g ->
          Sim.Estimate.run_sweep ?pool ~cache:(Overlay.Table_cache.create ()) ~retries ?fault
            ?checkpoint
            (Sim.Estimate.config ~trials ~pairs_per_trial:pairs ~seed ~bits ~q:(List.hd qs) g)
            qs
          |> List.iter (fun (q, result) ->
                 if csv then print_endline (Sim.Estimate.to_csv_row result)
                 else if json then print_endline (Sim.Estimate.to_json result)
                 else
                   let analysis = Rcm.Model.routability g ~d:bits ~q in
                   Fmt.pr "%a  (analysis: %.4f)@." Sim.Estimate.pp_result result analysis))
        geometries)

let simulate_cmd =
  let doc = "Monte-Carlo routability under the static-resilience failure model." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ geometry_arg $ bits_arg ~default:12 $ q_arg $ trials_arg $ pairs_arg
      $ seed_arg $ jobs_arg $ no_batch_arg $ obs_term $ csv_arg $ json_arg $ smoke_arg
      $ retries_arg $ inject_fault_arg $ checkpoint_term)

(* --- figure ------------------------------------------------------------------- *)

let figure_names =
  [
    "f6a"; "f6b"; "f7a"; "f7b"; "sym-knobs"; "suffix"; "fingers"; "rep-xor"; "rep-tree";
    "rep-ring"; "sparse"; "hops"; "blocks"; "base-tree"; "base-xor"; "dims"; "sym-bidir";
    "record-hops"; "record-tradeoff";
  ]

let record_geometry h =
  match Rcm.Geometry.of_string (Printf.sprintf "record:h=%d" h) with
  | Ok g -> g
  | Error e -> Fmt.failwith "%s" e

let figure_series ?pool name quick =
  let fig6_config =
    if quick then Experiments.Fig6a.quick_config else Experiments.Fig6a.default_config
  in
  match name with
    | "f6a" -> Experiments.Fig6a.run ?pool fig6_config
    | "f6b" -> Experiments.Fig6b.run ?pool fig6_config
    | "f7a" -> Experiments.Fig7a.run Experiments.Fig7a.default_config
    | "f7b" -> Experiments.Fig7b.run Experiments.Fig7b.default_config
    | "sym-knobs" ->
        Experiments.Symphony_knobs.run
          (if quick then { Experiments.Symphony_knobs.default_config with bits = 10 }
           else Experiments.Symphony_knobs.default_config)
    | "suffix" ->
        Experiments.Suffix_ablation.run
          (if quick then { Experiments.Suffix_ablation.default_config with bits = 10 }
           else Experiments.Suffix_ablation.default_config)
    | "fingers" ->
        Experiments.Finger_ablation.run
          (if quick then { Experiments.Finger_ablation.default_config with bits = 10 }
           else Experiments.Finger_ablation.default_config)
    | "rep-xor" | "rep-tree" | "rep-ring" as which ->
        let cfg =
          if quick then { Experiments.Replication_sweep.default_config with bits = 10 }
          else Experiments.Replication_sweep.default_config
        in
        (match which with
        | "rep-xor" -> Experiments.Replication_sweep.xor_series cfg
        | "rep-tree" -> Experiments.Replication_sweep.tree_series cfg
        | _ -> Experiments.Replication_sweep.ring_series cfg)
    | "sparse" ->
        let cfg =
          if quick then
            { Experiments.Sparse_occupancy.default_config with
              nodes = 256; bits_list = [ 8; 10; 12 ] }
          else Experiments.Sparse_occupancy.default_config
        in
        Experiments.Sparse_occupancy.run ?pool cfg Rcm.Geometry.Xor
    | "hops" ->
        Experiments.Latency.run_all
          (if quick then { Experiments.Latency.default_config with bits = 10 }
           else Experiments.Latency.default_config)
    | "blocks" ->
        Experiments.Correlated_failures.run_all
          (if quick then { Experiments.Correlated_failures.default_config with bits = 10 }
           else Experiments.Correlated_failures.default_config)
    | "base-tree" | "base-xor" as which ->
        let cfg =
          if quick then { Experiments.Base_sweep.default_config with bits = 10; groups = [ 1; 2 ] }
          else Experiments.Base_sweep.default_config
        in
        if which = "base-tree" then Experiments.Base_sweep.tree_series ?pool cfg
        else Experiments.Base_sweep.xor_series ?pool cfg
    | "dims" ->
        Experiments.Dimension_sweep.run
          (if quick then
             { Experiments.Dimension_sweep.default_config with
               configurations = [ (2, 32); (5, 4); (10, 2) ] }
           else Experiments.Dimension_sweep.default_config)
    | "sym-bidir" ->
        Experiments.Symphony_deployment.run
          (if quick then { Experiments.Symphony_deployment.default_config with bits = 10 }
           else Experiments.Symphony_deployment.default_config)
    | "record-hops" ->
        (* E13a: ReCord hop-count pmf, chain prediction vs simulation. *)
        Experiments.Hop_distribution.run
          (if quick then { Experiments.Hop_distribution.default_config with bits = 10 }
           else Experiments.Hop_distribution.default_config)
          (record_geometry 4)
    | "record-tradeoff" ->
        (* E13b: the degree / hop tradeoff along the ReCord base axis,
           anchored by builtin xor (= record at h=2's draw-identical twin). *)
        Experiments.Degree_hops.run
          (if quick then Experiments.Degree_hops.quick_config
           else Experiments.Degree_hops.default_config)
          [ Rcm.Geometry.Xor; record_geometry 2; record_geometry 4; record_geometry 16 ]
  | other ->
      Fmt.failwith "unknown figure %S (expected one of %s)" other
        (String.concat ", " figure_names)

let figure name quick csv plot jobs no_batch obs =
  let series =
    with_obs obs (fun () ->
        Obs.Manifest.note "subcommand" (Obs.Manifest.String "figure");
        Obs.Manifest.note "figure" (Obs.Manifest.String name);
        Obs.Manifest.note "quick" (Obs.Manifest.Bool quick);
        apply_batch no_batch;
        with_jobs jobs (fun pool -> figure_series ?pool name quick))
  in
  print_series ~csv series;
  if plot then print_string (Experiments.Ascii_plot.render series)

let figure_cmd =
  let doc = "Regenerate a paper figure or an ablation: " ^ String.concat ", " figure_names in
  let figure_name =
    Arg.(required & pos 0 (some (enum (List.map (fun n -> (n, n)) figure_names))) None
         & info [] ~docv:"FIGURE" ~doc:"Figure id.")
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const figure $ figure_name $ quick_arg $ csv_arg $ plot_arg $ jobs_arg $ no_batch_arg
      $ obs_term)

(* --- export ----------------------------------------------------------------- *)

let export dir quick jobs no_batch obs =
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     if not (Sys.is_directory dir) then die "export" 2 "%s: Not a directory" dir
   with Sys_error msg -> die "export" 2 "%s" msg);
  (* Every export gets a provenance manifest next to its CSVs unless
     the caller pointed --manifest elsewhere. *)
  let obs =
    match obs.manifest with
    | Some _ -> obs
    | None -> { obs with manifest = Some (Filename.concat dir "manifest.json") }
  in
  with_obs obs @@ fun () ->
  Obs.Manifest.note "subcommand" (Obs.Manifest.String "export");
  Obs.Manifest.note "quick" (Obs.Manifest.Bool quick);
  apply_batch no_batch;
  let written =
    with_jobs jobs (fun pool ->
        List.map
          (fun name ->
            let series = figure_series ?pool name quick in
            let path = Filename.concat dir (name ^ ".csv") in
            (* Atomic (temp + rename): a crash mid-export leaves either the
               previous file or the new one, never a truncated CSV that a
               plotting script would silently read. *)
            Obs.Atomic_file.write path (fun oc ->
                output_string oc (Experiments.Series.to_csv series));
            Obs.Manifest.add_artefact ~kind:"csv" path;
            Fmt.pr "wrote %s@." path;
            (name, series))
          figure_names)
  in
  (* A gnuplot driver that renders every exported CSV. *)
  let gp = Filename.concat dir "plots.gp" in
  Obs.Atomic_file.write gp (fun oc ->
      output_string oc "set datafile separator ','\nset key outside\nset grid\n";
      List.iter
        (fun (name, series) ->
          let columns = List.length series.Experiments.Series.columns in
          Printf.fprintf oc "\nset title %S\nset xlabel %S\nplot "
            series.Experiments.Series.title series.Experiments.Series.x_label;
          for c = 2 to columns + 1 do
            Printf.fprintf oc "%s'%s.csv' using 1:%d with linespoints title columnheader(%d)"
              (if c > 2 then ", " else "")
              name c c
          done;
          output_string oc "\npause -1 'press enter'\n")
        written);
  Obs.Manifest.add_artefact ~kind:"gnuplot" gp;
  Fmt.pr "wrote %s@." gp

let export_cmd =
  let doc =
    "Export every figure as CSV plus a gnuplot script and a provenance manifest."
  in
  let dir =
    Arg.(value & opt string "results" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const export $ dir $ quick_arg $ jobs_arg $ no_batch_arg $ obs_term)

(* --- scalability ----------------------------------------------------------------- *)

let scalability q obs =
  let q = Option.value ~default:0.1 q in
  (* [exit 1] must not bypass with_obs teardown, so the agreement check
     runs after the observed section finishes (manifest exit_status 0:
     the run itself completed; disagreement is a verdict, not a crash). *)
  let ok =
    with_obs obs @@ fun () ->
    Obs.Manifest.note "subcommand" (Obs.Manifest.String "scalability");
    Obs.Manifest.note "q" (Obs.Manifest.Float q);
    let report = Experiments.Classification.run ~q () in
    Fmt.pr "%a@." Experiments.Classification.pp report;
    Fmt.pr "%a@." Experiments.Critical_q.pp_rows (Experiments.Critical_q.run ());
    Fmt.pr "%a@." Experiments.Thresholds.pp_rows (Experiments.Thresholds.run ());
    Experiments.Classification.all_agree report
  in
  if not ok then exit 1

let scalability_cmd =
  let doc = "Scalability classification of all geometries (section 5 of the paper)." in
  Cmd.v (Cmd.info "scalability" ~doc) Term.(const scalability $ q_arg $ obs_term)

(* --- validate ----------------------------------------------------------------- *)

let validate with_sim bits trials pairs seed =
  if with_sim then check_sizes "validate" ~bits Rcm.Geometry.all_default;
  let chain_rows = Experiments.Validation.chain_vs_closed () in
  Fmt.pr "%a@." Experiments.Validation.pp_chain_rows chain_rows;
  let ok_chains = Experiments.Validation.max_chain_error chain_rows < 1e-10 in
  if not ok_chains then Fmt.pr "V1 FAILED: chain error above tolerance@.";
  let ok_sim =
    if not with_sim then true
    else begin
      let rows =
        Experiments.Validation.sim_vs_analysis ~bits ~trials ~pairs_per_trial:pairs ~seed ()
      in
      Fmt.pr "%a@." Experiments.Validation.pp_sim_rows rows;
      Experiments.Validation.sim_violations rows = []
    end
  in
  if not (ok_chains && ok_sim) then exit 1

let validate_cmd =
  let doc = "Validate closed forms against exact Markov chains (V1) and simulation (V2)." in
  let with_sim =
    Arg.(value & flag & info [ "sim" ] ~doc:"Also run the simulation cross-check (V2).")
  in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(const validate $ with_sim $ bits_arg ~default:12 $ trials_arg $ pairs_arg $ seed_arg)

(* --- percolation ----------------------------------------------------------------- *)

let percolation geometry bits trials pairs seed csv jobs no_batch obs =
  let cfg =
    { Experiments.Connectivity.default_config with bits; trials; pairs; seed }
  in
  let geometries = geometries_of_opt geometry in
  check_sizes "percolation" ~bits geometries;
  with_obs obs @@ fun () ->
  note_sim_params ~subcommand:"percolation" ~geometries ~bits ~trials ~pairs ~seed ~qs:[];
  apply_batch no_batch;
  with_jobs jobs (fun pool ->
      List.iter
        (fun g -> print_series ~csv (Experiments.Connectivity.run ?pool cfg g))
        geometries)

let percolation_cmd =
  let doc = "Pair-connectivity vs routability on identical failed overlays (experiment A1)." in
  Cmd.v
    (Cmd.info "percolation" ~doc)
    Term.(
      const percolation $ geometry_arg $ bits_arg ~default:12 $ trials_arg $ pairs_arg
      $ seed_arg $ csv_arg $ jobs_arg $ no_batch_arg $ obs_term)

(* --- churn ----------------------------------------------------------------- *)

let lifetime_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Sim.Lifetime.of_string s) in
  let pp ppf shape = Format.pp_print_string ppf (Sim.Lifetime.shape_to_string shape) in
  Arg.conv (parse, pp)

let churn geometry bits sessions session_dist gap gap_dist maintain k cache warmup
    measurements spacing pairs seed jobs obs csv json smoke retries fault ck =
  let module C = Experiments.Churn_curves in
  let bits, sessions, measurements, pairs =
    if smoke then (8, [ 2.0; 8.0 ], 2, 200) else (bits, sessions, measurements, pairs)
  in
  let geometries = geometries_of_opt geometry in
  let cfg =
    {
      C.bits;
      session_means = sessions;
      session_shape = session_dist;
      gap_mean = gap;
      gap_shape = gap_dist;
      maintenance_interval = maintain;
      k;
      cache_k = cache;
      warmup;
      measurements;
      measurement_spacing = spacing;
      pairs;
      seed;
    }
  in
  validate_or_die "churn" (fun () -> C.validate ~geometries cfg);
  run_sweep_cmd ~cmd:"churn" ~unit:"points" ~ck obs @@ fun checkpoint ->
  Obs.Manifest.note "subcommand" (Obs.Manifest.String "churn");
  Obs.Manifest.note "geometries"
    (Obs.Manifest.Strings (List.map Rcm.Geometry.slug geometries));
  Obs.Manifest.note "bits" (Obs.Manifest.Int bits);
  Obs.Manifest.note "sessions"
    (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") sessions));
  Obs.Manifest.note "session_dist"
    (Obs.Manifest.String (Sim.Lifetime.shape_to_string session_dist));
  Obs.Manifest.note "gap" (Obs.Manifest.String (Printf.sprintf "%g" gap));
  Obs.Manifest.note "gap_dist" (Obs.Manifest.String (Sim.Lifetime.shape_to_string gap_dist));
  Obs.Manifest.note "maintain" (Obs.Manifest.String (Printf.sprintf "%g" maintain));
  Obs.Manifest.note "k" (Obs.Manifest.Int k);
  Obs.Manifest.note "cache_k" (Obs.Manifest.Int cache);
  Obs.Manifest.note "pairs" (Obs.Manifest.Int pairs);
  Obs.Manifest.note "seed" (Obs.Manifest.Int seed);
  with_jobs jobs (fun pool ->
      C.run ?pool ~geometries ~retries ?fault ?checkpoint cfg
      |> print_points ~csv ~json ~header:C.csv_header ~row:(C.to_csv_row cfg)
           ~to_json:(C.to_json cfg) (Fmt.pr "%a" C.pp_points))

let churn_cmd =
  let doc =
    "Session-based steady-state churn: routability vs churn-rate curves for every \
     geometry, paired with the static r(N,q) prediction at the measured stale fraction."
  in
  let sessions =
    Arg.(value
         & opt (list float) Experiments.Churn_curves.default_config.session_means
         & info [ "sessions" ] ~docv:"MEANS"
             ~doc:"Comma-separated mean session times to sweep (the churn-rate axis).")
  in
  let session_dist =
    Arg.(value & opt lifetime_conv Sim.Lifetime.Exponential
         & info [ "session-dist" ] ~docv:"DIST"
             ~doc:
               "Session length distribution: $(b,exp), $(b,pareto:ALPHA) or \
                $(b,weibull:SHAPE) (heavy-tailed below shape 1).")
  in
  let gap =
    Arg.(value & opt float Experiments.Churn_curves.default_config.gap_mean
         & info [ "gap" ] ~docv:"MEAN" ~doc:"Mean downtime between sessions.")
  in
  let gap_dist =
    Arg.(value & opt lifetime_conv Sim.Lifetime.Exponential
         & info [ "gap-dist" ] ~docv:"DIST"
             ~doc:"Downtime distribution (same spellings as $(b,--session-dist)).")
  in
  let maintain =
    Arg.(value & opt float Experiments.Churn_curves.default_config.maintenance_interval
         & info [ "maintain" ] ~docv:"TIME"
             ~doc:
               "Per-node maintenance period: xor tables run a ping-before-evict pass \
                plus one bucket refresh, symphony redraws dead shortcuts.")
  in
  let k =
    Arg.(value & opt int Experiments.Churn_curves.default_config.k
         & info [ "k" ] ~docv:"N" ~doc:"Kademlia bucket capacity (xor geometry).")
  in
  let cache =
    Arg.(value & opt int Experiments.Churn_curves.default_config.cache_k
         & info [ "cache" ] ~docv:"N"
             ~doc:"Replacement-cache entries per bucket (xor geometry); 0 disables.")
  in
  let warmup =
    Arg.(value & opt float Experiments.Churn_curves.default_config.warmup
         & info [ "warmup" ] ~docv:"TIME"
             ~doc:"Simulated time before the first measurement (reach steady state).")
  in
  let measurements =
    Arg.(value & opt int Experiments.Churn_curves.default_config.measurements
         & info [ "measurements" ] ~docv:"N" ~doc:"Measurements per grid point.")
  in
  let spacing =
    Arg.(value & opt float Experiments.Churn_curves.default_config.measurement_spacing
         & info [ "spacing" ] ~docv:"TIME" ~doc:"Simulated time between measurements.")
  in
  let pairs =
    Arg.(value & opt int Experiments.Churn_curves.default_config.pairs
         & info [ "pairs" ] ~docv:"N" ~doc:"Routed source/destination pairs per measurement.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:
               "Tiny preset sweep for CI smoke tests: overrides $(b,--bits) to 8, \
                $(b,--sessions) to 2,8, $(b,--measurements) to 2 and $(b,--pairs) to 200.")
  in
  Cmd.v
    (Cmd.info "churn" ~doc)
    Term.(
      const churn $ geometry_arg $ bits_arg ~default:10 $ sessions $ session_dist $ gap
      $ gap_dist $ maintain $ k $ cache $ warmup $ measurements $ spacing $ pairs
      $ seed_arg $ jobs_arg $ obs_term $ csv_arg $ json_arg $ smoke $ retries_arg
      $ inject_fault_arg $ checkpoint_term)

(* --- storage ----------------------------------------------------------------- *)

let storage geometry bits nodes keys reads zipf rs read_quorum write_quorum qs trials
    sessions session_dist gap gap_dist warmup measurements spacing seed jobs no_batch obs
    csv json smoke retries fault ck =
  let module S = Experiments.Storage_sweep in
  let churn_mode = sessions <> [] in
  let bits, nodes, keys, reads, rs, qs, trials, sessions, measurements =
    if smoke then
      ( 8,
        Some 128,
        16,
        64,
        [ 1; 2 ],
        [ 0.1; 0.3 ],
        2,
        (if churn_mode then [ 2.0; 8.0 ] else []),
        2 )
    else (bits, nodes, keys, reads, rs, qs, trials, sessions, measurements)
  in
  let nodes =
    match nodes with Some n -> n | None -> max 2 (1 lsl (bits - 1))
  in
  let geometries =
    match geometry with
    | Some g -> [ g ]
    | None -> S.default_geometries
  in
  let mode =
    if churn_mode then
      S.Churn
        {
          session_means = sessions;
          session_shape = session_dist;
          gap_mean = gap;
          gap_shape = gap_dist;
          warmup;
          measurements;
          spacing;
        }
    else S.Static { qs; trials }
  in
  let cfg =
    {
      S.bits;
      nodes;
      keys;
      reads;
      zipf_s = zipf;
      rs;
      rq_spec = read_quorum;
      wq_spec = write_quorum;
      mode;
      seed;
    }
  in
  validate_or_die "storage" (fun () -> S.validate ~geometries cfg);
  run_sweep_cmd ~cmd:"storage" ~unit:"points" ~ck obs @@ fun checkpoint ->
  Obs.Manifest.note "subcommand" (Obs.Manifest.String "storage");
  apply_batch no_batch;
  Obs.Manifest.note "geometries"
    (Obs.Manifest.Strings (List.map Rcm.Geometry.slug geometries));
  Obs.Manifest.note "bits" (Obs.Manifest.Int bits);
  Obs.Manifest.note "nodes" (Obs.Manifest.Int nodes);
  Obs.Manifest.note "keys" (Obs.Manifest.Int keys);
  Obs.Manifest.note "reads" (Obs.Manifest.Int reads);
  Obs.Manifest.note "zipf" (Obs.Manifest.String (Printf.sprintf "%g" zipf));
  Obs.Manifest.note "rs" (Obs.Manifest.Strings (List.map string_of_int rs));
  Obs.Manifest.note "read_quorum" (Obs.Manifest.String read_quorum);
  Obs.Manifest.note "write_quorum" (Obs.Manifest.String write_quorum);
  Obs.Manifest.note "mode" (Obs.Manifest.String (if churn_mode then "churn" else "static"));
  (if churn_mode then begin
     Obs.Manifest.note "sessions"
       (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") sessions));
     Obs.Manifest.note "session_dist"
       (Obs.Manifest.String (Sim.Lifetime.shape_to_string session_dist));
     Obs.Manifest.note "gap" (Obs.Manifest.String (Printf.sprintf "%g" gap));
     Obs.Manifest.note "gap_dist"
       (Obs.Manifest.String (Sim.Lifetime.shape_to_string gap_dist))
   end
   else begin
     Obs.Manifest.note "qs" (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") qs));
     Obs.Manifest.note "trials" (Obs.Manifest.Int trials)
   end);
  Obs.Manifest.note "seed" (Obs.Manifest.Int seed);
  with_jobs jobs (fun pool ->
      S.run ?pool ~geometries ~retries ?fault ?checkpoint cfg
      |> print_points ~csv ~json ~header:S.csv_header ~row:(S.to_csv_row cfg)
           ~to_json:(S.to_json cfg) (Fmt.pr "%a" S.pp_points))

let storage_cmd =
  let doc =
    "Replicated storage layer: quorum-read availability, replica survival and \
     read-repair cost under failure (vs the Leslie closed form) or session churn."
  in
  let nodes =
    Arg.(value & opt (some int) None
         & info [ "nodes" ] ~docv:"N"
             ~doc:
               "Overlay size (sparse occupancy: node count, not ID-space size). \
                Defaults to 2^(bits-1).")
  in
  let keys =
    Arg.(value & opt int Experiments.Storage_sweep.default_config.keys
         & info [ "keys" ] ~docv:"N" ~doc:"Keys placed per trial.")
  in
  let reads =
    Arg.(value & opt int Experiments.Storage_sweep.default_config.reads
         & info [ "reads" ] ~docv:"N"
             ~doc:"Quorum reads per trial (static) or per measurement epoch (churn).")
  in
  let zipf =
    Arg.(value & opt float Experiments.Storage_sweep.default_config.zipf_s
         & info [ "zipf" ] ~docv:"S"
             ~doc:"Key-popularity Zipf exponent; 0 is uniform, ~1 is web-like skew.")
  in
  let rs =
    Arg.(value & opt (list int) Experiments.Storage_sweep.default_config.rs
         & info [ "r"; "replicas" ] ~docv:"RS"
             ~doc:"Comma-separated replication degrees to sweep.")
  in
  let read_quorum =
    Arg.(value & opt string Experiments.Storage_sweep.default_config.rq_spec
         & info [ "read-quorum" ] ~docv:"RQ"
             ~doc:
               "Read-quorum threshold, resolved against each replication degree: \
                $(b,majority), $(b,one), $(b,all) or an integer.")
  in
  let write_quorum =
    Arg.(value & opt string Experiments.Storage_sweep.default_config.wq_spec
         & info [ "write-quorum" ] ~docv:"WQ"
             ~doc:"Write-quorum threshold (same grammar as $(b,--read-quorum)).")
  in
  let qs =
    Arg.(value & opt (list float) [ 0.1; 0.2; 0.3; 0.4; 0.5 ]
         & info [ "qs" ] ~docv:"PROBS"
             ~doc:"Comma-separated failure probabilities (the static-mode axis).")
  in
  let trials =
    Arg.(value & opt int 4
         & info [ "trials" ] ~docv:"N"
             ~doc:"Independent worlds per static grid point.")
  in
  let sessions =
    Arg.(value & opt (list float) []
         & info [ "sessions" ] ~docv:"MEANS"
             ~doc:
               "Comma-separated mean session times: switches to churn mode with this \
                as the sweep axis (default: static failure mode over $(b,--qs)).")
  in
  let session_dist =
    Arg.(value & opt lifetime_conv Sim.Lifetime.Exponential
         & info [ "session-dist" ] ~docv:"DIST"
             ~doc:
               "Session length distribution: $(b,exp), $(b,pareto:ALPHA) or \
                $(b,weibull:SHAPE).")
  in
  let gap =
    Arg.(value & opt float 2.0
         & info [ "gap" ] ~docv:"MEAN" ~doc:"Mean downtime between sessions (churn mode).")
  in
  let gap_dist =
    Arg.(value & opt lifetime_conv Sim.Lifetime.Exponential
         & info [ "gap-dist" ] ~docv:"DIST"
             ~doc:"Downtime distribution (same spellings as $(b,--session-dist)).")
  in
  let warmup =
    Arg.(value & opt float 20.0
         & info [ "warmup" ] ~docv:"TIME"
             ~doc:"Simulated time before the first measurement (churn mode).")
  in
  let measurements =
    Arg.(value & opt int 5
         & info [ "measurements" ] ~docv:"N" ~doc:"Measurement epochs per churn point.")
  in
  let spacing =
    Arg.(value & opt float 2.0
         & info [ "spacing" ] ~docv:"TIME" ~doc:"Simulated time between epochs.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:
               "Tiny preset sweep for CI smoke tests: overrides $(b,--bits) to 8, \
                $(b,--nodes) to 128, $(b,--keys) to 16, $(b,--reads) to 64, \
                $(b,--replicas) to 1,2, $(b,--qs) to 0.1,0.3 and $(b,--trials) to 2 \
                (in churn mode: $(b,--sessions) to 2,8 and $(b,--measurements) to 2).")
  in
  Cmd.v
    (Cmd.info "storage" ~doc)
    Term.(
      const storage $ geometry_arg $ bits_arg ~default:10 $ nodes $ keys $ reads $ zipf
      $ rs $ read_quorum $ write_quorum $ qs $ trials $ sessions $ session_dist $ gap
      $ gap_dist $ warmup $ measurements $ spacing $ seed_arg $ jobs_arg $ no_batch_arg
      $ obs_term $ csv_arg $ json_arg $ smoke $ retries_arg $ inject_fault_arg
      $ checkpoint_term)

(* --- hotspots ----------------------------------------------------------------- *)

(* One gnuplot nonuniform-matrix block per plane (row 0 the axis
   values, each later row one geometry's congestion of the plane's
   primary kind) plus a driver script that renders each as a heatmap. *)
let write_heatmap ~prefix planes points =
  let module H = Experiments.Hotspot_sweep in
  let uniq extract selected =
    List.fold_left
      (fun acc p ->
        let v = extract p in
        if List.mem v acc then acc else acc @ [ v ])
      [] selected
  in
  let dats =
    List.filter_map
      (fun plane ->
        match List.filter (fun p -> p.H.plane = plane) points with
        | [] -> None
        | selected ->
            let geoms = uniq (fun p -> p.H.geometry) selected in
            let axes = uniq (fun p -> p.H.axis) selected in
            let path = Printf.sprintf "%s_%s.dat" prefix (H.plane_tag plane) in
            Obs.Atomic_file.write path (fun oc ->
                Printf.fprintf oc "%d" (List.length axes);
                List.iter (fun a -> Printf.fprintf oc " %g" a) axes;
                output_char oc '\n';
                List.iteri
                  (fun row g ->
                    Printf.fprintf oc "%d" row;
                    List.iter
                      (fun a ->
                        let congestion =
                          match
                            List.find_opt
                              (fun p -> p.H.geometry = g && p.H.axis = a)
                              selected
                          with
                          | Some p -> (H.primary p).Obs.Loadmap_report.congestion
                          | None -> Float.nan
                        in
                        Printf.fprintf oc " %g" congestion)
                      axes;
                    output_char oc '\n')
                  geoms);
            Obs.Manifest.add_artefact ~kind:"heatmap" path;
            Fmt.epr "dhtlab hotspots: wrote %s@." path;
            Some (plane, path, geoms))
      planes
  in
  let gp = prefix ^ ".gp" in
  Obs.Atomic_file.write gp (fun oc ->
      output_string oc "set view map\nset palette rgbformulae 21,22,23\n";
      List.iter
        (fun (plane, path, geoms) ->
          Printf.fprintf oc "\nset title 'congestion (max/mean), %s plane'\n"
            (H.plane_tag plane);
          Printf.fprintf oc "set xlabel '%s'\n"
            (match plane with
            | H.Routing -> "failure probability q"
            | H.Storage -> "zipf exponent s");
          output_string oc "set ytics (";
          List.iteri
            (fun i g ->
              Printf.fprintf oc "%s\"%s\" %d"
                (if i > 0 then ", " else "")
                (Rcm.Geometry.slug g) i)
            geoms;
          output_string oc ")\n";
          Printf.fprintf oc
            "plot '%s' matrix nonuniform with image notitle\npause -1 'press enter'\n"
            path)
        dats);
  Obs.Manifest.add_artefact ~kind:"gnuplot" gp;
  Fmt.epr "dhtlab hotspots: wrote %s@." gp

let hotspots geometry bits pairs qs nodes keys reads r storage_q zipf_ss trials
    plane loadmap_out heatmap top seed jobs no_batch obs csv json smoke retries
    fault =
  let module H = Experiments.Hotspot_sweep in
  let bits, pairs, qs, nodes, keys, reads, zipf_ss, trials =
    if smoke then (8, 200, [ 0.1; 0.3 ], Some 128, 16, 64, [ 0.0; 0.8 ], 2)
    else (bits, pairs, qs, nodes, keys, reads, zipf_ss, trials)
  in
  let storage_nodes =
    match nodes with Some n -> n | None -> max 2 (1 lsl (bits - 1))
  in
  let planes =
    match plane with
    | `Both -> [ H.Routing; H.Storage ]
    | `Routing -> [ H.Routing ]
    | `Storage -> [ H.Storage ]
  in
  (* The hypercube routes on the full table only: restricting the sweep
     to it drops the storage plane (no sparse hypercube overlay). *)
  let planes =
    if geometry = Some Rcm.Geometry.Hypercube then begin
      if not (List.mem H.Routing planes) then
        die "hotspots" 2 "no sparse hypercube overlay exists";
      [ H.Routing ]
    end
    else planes
  in
  let routing_geometries =
    match geometry with Some g -> [ g ] | None -> H.default_routing_geometries
  in
  let storage_geometries =
    match geometry with Some g -> [ g ] | None -> H.default_storage_geometries
  in
  let cfg =
    {
      H.bits;
      pairs;
      qs;
      storage_nodes;
      keys;
      reads;
      r;
      storage_q;
      zipf_ss;
      trials;
      seed;
    }
  in
  validate_or_die "hotspots" (fun () ->
      H.validate ~planes ~routing_geometries ~storage_geometries cfg);
  run_sweep_cmd ~cmd:"hotspots" ~unit:"points" obs @@ fun _ ->
  Obs.Manifest.note "subcommand" (Obs.Manifest.String "hotspots");
  Obs.Manifest.note "planes" (Obs.Manifest.Strings (List.map H.plane_tag planes));
  Obs.Manifest.note "geometries"
    (Obs.Manifest.Strings (List.map Rcm.Geometry.slug routing_geometries));
  Obs.Manifest.note "bits" (Obs.Manifest.Int bits);
  Obs.Manifest.note "pairs" (Obs.Manifest.Int pairs);
  Obs.Manifest.note "qs" (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") qs));
  Obs.Manifest.note "nodes" (Obs.Manifest.Int storage_nodes);
  Obs.Manifest.note "keys" (Obs.Manifest.Int keys);
  Obs.Manifest.note "reads" (Obs.Manifest.Int reads);
  Obs.Manifest.note "r" (Obs.Manifest.Int r);
  Obs.Manifest.note "storage_q" (Obs.Manifest.String (Printf.sprintf "%g" storage_q));
  Obs.Manifest.note "zipf" (Obs.Manifest.Strings (List.map (Printf.sprintf "%g") zipf_ss));
  Obs.Manifest.note "trials" (Obs.Manifest.Int trials);
  Obs.Manifest.note "seed" (Obs.Manifest.Int seed);
  apply_batch no_batch;
  with_jobs jobs (fun pool ->
      let points =
        H.run ?pool ~planes ~routing_geometries ~storage_geometries ~retries ?fault cfg
      in
      Option.iter
        (fun path ->
          match List.find_map (fun pl -> H.merged pl points) planes with
          | Some lm ->
              Obs.Loadmap.save lm path;
              Obs.Manifest.add_artefact ~kind:"loadmap" path;
              Fmt.epr "dhtlab hotspots: wrote %s@." path
          | None -> ())
        loadmap_out;
      Option.iter (fun prefix -> write_heatmap ~prefix planes points) heatmap;
      print_points ~csv ~json ~header:H.csv_header ~row:(H.to_csv_row cfg)
        ~to_json:(H.to_json cfg)
        (fun points ->
          Fmt.pr "%a" H.pp_points points;
          List.iter
            (fun pl ->
              Option.iter
                (fun lm ->
                  Fmt.pr "@.# %s plane, merged over the sweep@.%a" (H.plane_tag pl)
                    (fun ppf lm -> Obs.Loadmap_report.pp ~top ppf lm)
                    lm)
                (H.merged pl points))
            planes)
        points)

let hotspots_cmd =
  let doc =
    "Per-node load telemetry: where routed messages travel and which replica \
     holders serve the reads, summarized as congestion (max/mean), Gini \
     concentration and top-K hot spots per geometry."
  in
  let qs =
    Arg.(value & opt (list float) Experiments.Hotspot_sweep.default_config.qs
         & info [ "qs" ] ~docv:"PROBS"
             ~doc:"Comma-separated failure probabilities (the routing-plane axis).")
  in
  let nodes =
    Arg.(value & opt (some int) None
         & info [ "nodes" ] ~docv:"N"
             ~doc:
               "Storage-plane overlay size (sparse occupancy). Defaults to \
                2^(bits-1).")
  in
  let keys =
    Arg.(value & opt int Experiments.Hotspot_sweep.default_config.keys
         & info [ "keys" ] ~docv:"N" ~doc:"Keys placed per storage trial.")
  in
  let reads =
    Arg.(value & opt int Experiments.Hotspot_sweep.default_config.reads
         & info [ "reads" ] ~docv:"N" ~doc:"Quorum reads per storage trial.")
  in
  let replicas =
    Arg.(value & opt int Experiments.Hotspot_sweep.default_config.r
         & info [ "r"; "replicas" ] ~docv:"R"
             ~doc:"Replication degree (majority quorums), storage plane.")
  in
  let storage_q =
    Arg.(value & opt float Experiments.Hotspot_sweep.default_config.storage_q
         & info [ "storage-q" ] ~docv:"PROB"
             ~doc:"Fixed failure probability for the storage plane.")
  in
  let zipf =
    Arg.(value & opt (list float) Experiments.Hotspot_sweep.default_config.zipf_ss
         & info [ "zipf" ] ~docv:"SS"
             ~doc:
               "Comma-separated key-popularity Zipf exponents (the storage-plane \
                axis).")
  in
  let plane =
    Arg.(value
         & opt
             (enum [ ("routing", `Routing); ("storage", `Storage); ("both", `Both) ])
             `Both
         & info [ "plane" ] ~docv:"PLANE"
             ~doc:"Which plane(s) to sweep: $(b,routing), $(b,storage) or $(b,both).")
  in
  let loadmap_out =
    Arg.(value & opt (some string) None
         & info [ "loadmap" ] ~docv:"FILE"
             ~doc:
               "Persist the merged per-node counters as CSV (atomically): one row \
                per node with traversal, termination, storage-read and repair \
                counts. The file is byte-identical at any $(b,--jobs) count and \
                with or without $(b,--no-batch). When both planes ran, the routing \
                plane's map is written (select $(b,--plane) $(b,storage) for the \
                other).")
  in
  let heatmap =
    Arg.(value & opt (some string) None
         & info [ "heatmap" ] ~docv:"PREFIX"
             ~doc:
               "Write one gnuplot matrix file per plane ($(docv)_routing.dat, \
                $(docv)_storage.dat: congestion per geometry and axis value) plus \
                a $(docv).gp driver script that renders each as a heatmap.")
  in
  let top =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"K"
             ~doc:"Hottest nodes listed per counter kind in the merged report.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:
               "Tiny preset sweep for CI smoke tests: overrides $(b,--bits) to 8, \
                $(b,--pairs) to 200, $(b,--qs) to 0.1,0.3, $(b,--nodes) to 128, \
                $(b,--keys) to 16, $(b,--reads) to 64, $(b,--zipf) to 0,0.8 and \
                $(b,--trials) to 2.")
  in
  Cmd.v
    (Cmd.info "hotspots" ~doc)
    Term.(
      const hotspots $ geometry_arg $ bits_arg ~default:10 $ pairs_arg $ qs $ nodes
      $ keys $ reads $ replicas $ storage_q $ zipf $ trials_arg $ plane
      $ loadmap_out $ heatmap $ top $ seed_arg $ jobs_arg $ no_batch_arg $ obs_term
      $ csv_arg $ json_arg $ smoke $ retries_arg $ inject_fault_arg)

(* --- route ----------------------------------------------------------------- *)

let route geometry bits q src dst seed =
  let geometry = Option.value ~default:Rcm.Geometry.Ring geometry in
  check_sizes "route" ~bits [ geometry ];
  List.iter
    (fun (what, v) ->
      if v < 0 || v >= 1 lsl bits then
        die "route" 2 "%s %d is outside the id space [0, %d)" what v (1 lsl bits))
    [ ("SRC", src); ("DST", dst) ];
  let rng = Prng.Splitmix.create ~seed in
  let table = Overlay.Table.build ~rng ~bits geometry in
  let q = Option.value ~default:0.0 q in
  let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
  Overlay.Failure.set alive src true;
  Overlay.Failure.set alive dst true;
  let outcome, path = Routing.Router.route_with_path table ~rng ~alive ~src ~dst in
  Fmt.pr "%a -> %a under %a with q=%.2f: %a@."
    (Idspace.Id.pp ~bits) src (Idspace.Id.pp ~bits) dst Rcm.Geometry.pp geometry q
    Routing.Outcome.pp outcome;
  List.iteri
    (fun i v -> Fmt.pr "  hop %2d: %a (%d)@." i (Idspace.Id.pp ~bits) v v)
    path

let route_cmd =
  let doc = "Route a single message over a failed overlay and print the path." in
  let src =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC" ~doc:"Source node id.")
  in
  let dst =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"DST" ~doc:"Destination node id.")
  in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      const route $ geometry_arg $ bits_arg ~default:8 $ q_arg $ src $ dst $ seed_arg)

(* --- trace ----------------------------------------------------------------- *)

let allow_partial_arg =
  let doc =
    "Tolerate unparseable lines (counted and reported on stderr) instead of failing on \
     the first one. Needed to read the $(b,.tmp) file a hard-killed run leaves behind, \
     whose final line may be cut off mid-record."
  in
  Arg.(value & flag & info [ "allow-partial" ] ~doc)

let trace_file_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"TRACE" ~doc:"JSONL trace written with $(b,--trace-out).")

(* Load a trace, translating the two expected failure modes into
   messages and exit 1 rather than a backtrace. *)
let load_trace ~allow_partial file =
  match Obs.Trace_reader.load ~allow_partial file with
  | { Obs.Trace_reader.records; skipped } ->
      if skipped > 0 then
        Fmt.epr "dhtlab trace: skipped %d unparseable line(s) in %s@." skipped file;
      records
  | exception Obs.Trace_reader.Corrupt msg ->
      Fmt.epr "dhtlab trace: %s: %s@." file msg;
      Fmt.epr "(a trace cut off mid-write can be read with --allow-partial)@.";
      exit 1
  | exception Sys_error msg ->
      Fmt.epr "dhtlab trace: %s@." msg;
      exit 1

let trace_report file allow_partial top =
  let records = load_trace ~allow_partial file in
  Fmt.pr "%a@?" Obs.Trace_reader.pp_report (Obs.Trace_reader.analyze ~top records)

let trace_report_cmd =
  let doc =
    "Aggregate a JSONL trace: per-span count/total/p50/p99, per-domain utilisation and \
     imbalance, per-geometry hop-count distributions, slowest spans."
  in
  let top =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"K" ~doc:"How many of the slowest spans to list.")
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const trace_report $ trace_file_arg $ allow_partial_arg $ top)

let trace_export_chrome file out allow_partial =
  let records = load_trace ~allow_partial file in
  Obs.Atomic_file.write out (fun oc -> Obs.Trace_reader.export_chrome records oc);
  Fmt.pr "wrote %s@." out

let trace_export_chrome_cmd =
  let doc =
    "Convert a JSONL trace to the Chrome trace-event format, viewable in Perfetto \
     (ui.perfetto.dev) or chrome://tracing."
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output JSON file.")
  in
  Cmd.v
    (Cmd.info "export-chrome" ~doc)
    Term.(const trace_export_chrome $ trace_file_arg $ out $ allow_partial_arg)

let trace_cmd =
  let doc = "Analyse JSONL traces recorded with $(b,--trace-out)." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_report_cmd; trace_export_chrome_cmd ]

(* --- geometries ------------------------------------------------------------ *)

let geometries names_only =
  if names_only then List.iter print_endline (Geom.names ())
  else begin
    Fmt.pr "%-12s %-22s %-16s %-14s %s@." "name" "example" "degree" "hops" "capabilities";
    List.iter
      (fun g ->
        let caps =
          List.filter_map
            (fun (label, on) -> if on then Some label else None)
            [
              ("analysis", g.Geom.analysis); ("chain", g.Geom.chain);
              ("batch-block", g.Geom.batch_block); ("sparse", g.Geom.sparse);
              ("session-churn", g.Geom.session_churn);
              ("builtin", g.Geom.builtin);
            ]
        in
        Fmt.pr "%-12s %-22s %-16s %-14s %s@." (Geom.name g) g.Geom.example g.Geom.degree
          g.Geom.hops (String.concat "," caps))
      (Geom.all ())
  end

let geometries_cmd =
  let doc =
    "List the registered routing geometries: built-ins and plugins, with their \
     example slugs, asymptotics and per-layer capabilities."
  in
  let names_only =
    Arg.(value & flag
         & info [ "names" ]
             ~doc:"Print bare registry names only, one per line (for scripts).")
  in
  Cmd.v (Cmd.info "geometries" ~doc) Term.(const geometries $ names_only)

(* --- main ----------------------------------------------------------------- *)

let main_cmd =
  let doc = "Scalability and performance analysis of DHT routing systems (RCM)." in
  let info = Cmd.info "dhtlab" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      analyze_cmd;
      simulate_cmd;
      figure_cmd;
      scalability_cmd;
      validate_cmd;
      percolation_cmd;
      churn_cmd;
      storage_cmd;
      hotspots_cmd;
      geometries_cmd;
      route_cmd;
      export_cmd;
      trace_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
