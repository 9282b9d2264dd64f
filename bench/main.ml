(* Benchmark and figure-regeneration harness.

   Running this executable:
   1. regenerates the data series behind every figure of the paper
      (Fig. 6(a), 6(b), 7(a), 7(b)), the section-5 classification table
      and the A1-A4 ablations, printing each as an aligned table; then
   2. runs one Bechamel micro-benchmark per experiment kernel, so the
      cost of the analysis and of the simulator are tracked; then
   3. times the Fig. 6(a)-style simulation sweep sequentially and on
      the domain pool, printing the wall-clock speedup line that tracks
      the perf trajectory across PRs; then
   4. compares the overlay backends (classic vs flat) at large N; then
   5. compares the batch routing kernel against the scalar router:
      routes/s per geometry and the end-to-end sweep wall clock, with
      the batch results asserted equal to the scalar ones.

   Besides the human-readable tables, the measurements land in
   BENCH_<date>.json (name -> ns/run, the sweep timings, and a
   "metrics" section snapshotting the engine's counters/histograms).

   With --smoke only step 3 runs, at CI-friendly sizes: it exists so
   `make bench-smoke` can assert the JSON pipeline end to end in
   seconds rather than minutes. *)

open Bechamel
open Toolkit

(* --- Part 1: regenerate every figure ------------------------------------ *)

(* Figure-quality settings that complete in a couple of minutes; the
   analysis columns are exact regardless. *)
let fig6_config =
  { Experiments.Fig6a.default_config with trials = 3; pairs_per_trial = 1_500 }

let ablation_bits = 12

let regenerate_figures () =
  Fmt.pr "==== Figure regeneration ====@.@.";
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Fig6a.run fig6_config);
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Fig6b.run fig6_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Fig7a.run Experiments.Fig7a.default_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Fig7b.run Experiments.Fig7b.default_config);
  Fmt.pr "%a@." Experiments.Classification.pp (Experiments.Classification.run ());
  let chain_rows =
    Experiments.Validation.chain_vs_closed ~hs:[ 1; 4; 8; 12 ] ~qs:[ 0.1; 0.3; 0.5 ] ()
  in
  Fmt.pr "# V1 summary: max |closed-form - chain| = %.3e over %d cases@.@."
    (Experiments.Validation.max_chain_error chain_rows)
    (List.length chain_rows);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Connectivity.run
       { Experiments.Connectivity.default_config with bits = ablation_bits }
       Rcm.Geometry.Tree);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Symphony_knobs.run Experiments.Symphony_knobs.default_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Suffix_ablation.run
       { Experiments.Suffix_ablation.default_config with bits = ablation_bits });
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Finger_ablation.run
       { Experiments.Finger_ablation.default_config with bits = ablation_bits });
  let replication_config =
    { Experiments.Replication_sweep.default_config with bits = ablation_bits }
  in
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Replication_sweep.xor_series replication_config);
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Replication_sweep.tree_series replication_config);
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Replication_sweep.ring_series replication_config);
  List.iter
    (fun g ->
      Fmt.pr "%a@." Experiments.Series.pp
        (Experiments.Sparse_occupancy.run Experiments.Sparse_occupancy.default_config g))
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring; Rcm.Geometry.default_symphony ];
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Latency.run_all { Experiments.Latency.default_config with bits = ablation_bits });
  Fmt.pr "%a@." Experiments.Churn_bridge.pp_rows
    (Experiments.Churn_bridge.run
       ~geometries:
         [ Geom_record.geometry ~h:2 (); Rcm.Geometry.Ring; Rcm.Geometry.default_symphony ]
       Experiments.Churn_bridge.default_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Correlated_failures.run_all Experiments.Correlated_failures.default_config);
  Fmt.pr "%a@." Experiments.Critical_q.pp_rows (Experiments.Critical_q.run ());
  let base_config = { Experiments.Base_sweep.default_config with bits = ablation_bits } in
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Base_sweep.tree_series base_config);
  Fmt.pr "%a@." Experiments.Series.pp (Experiments.Base_sweep.xor_series base_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Dimension_sweep.run Experiments.Dimension_sweep.default_config);
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Symphony_deployment.run Experiments.Symphony_deployment.default_config);
  Fmt.pr "%a@." Experiments.Thresholds.pp_rows (Experiments.Thresholds.run ());
  Fmt.pr "%a@." Experiments.Series.pp
    (Experiments.Hop_distribution.run Experiments.Hop_distribution.default_config
       Rcm.Geometry.Hypercube)

(* --- Part 2: Bechamel micro-benchmarks ----------------------------------- *)

(* One Test.make per experiment: the analysis kernel that produces each
   figure's columns, and the simulation kernel behind the Fig. 6
   points. *)

let bench_fig6a_analysis =
  Test.make ~name:"fig6a/analysis-column"
    (Staged.stage (fun () ->
         List.iter
           (fun g -> ignore (Rcm.Model.failed_paths_percent g ~d:16 ~q:0.3))
           Experiments.Fig6a.geometries))

let bench_fig6b_analysis =
  Test.make ~name:"fig6b/ring-analysis-point"
    (Staged.stage (fun () ->
         ignore (Rcm.Model.failed_paths_percent Rcm.Geometry.Ring ~d:16 ~q:0.3)))

let bench_fig7a_asymptotic =
  Test.make ~name:"fig7a/all-geometries-d100"
    (Staged.stage (fun () ->
         List.iter
           (fun g -> ignore (Rcm.Model.failed_paths_percent g ~d:100 ~q:0.3))
           Rcm.Geometry.all_default))

let bench_fig7b_sweep =
  Test.make ~name:"fig7b/xor-size-sweep"
    (Staged.stage (fun () ->
         List.iter
           (fun d -> ignore (Rcm.Model.routability Rcm.Geometry.Xor ~d ~q:0.1))
           Experiments.Grid.fig7b_d))

let bench_classification =
  Test.make ~name:"classification/table"
    (Staged.stage (fun () -> ignore (Experiments.Classification.run ())))

let bench_markov_validation =
  Test.make ~name:"validation/xor-chain-h12"
    (Staged.stage (fun () ->
         ignore
           (Markov.Routing_chains.success_probability
              (Markov.Routing_chains.xor ~h:12 ~q:0.3))))

let simulation_trial geometry =
  let bits = 12 in
  Staged.stage (fun () ->
      let rng = Prng.Splitmix.create ~seed:99 in
      let table = Overlay.Table.build ~rng ~bits geometry in
      let alive = Overlay.Failure.sample ~rng ~q:0.2 (Overlay.Table.node_count table) in
      let pool = Overlay.Failure.survivors alive in
      let delivered = ref 0 in
      for _ = 1 to 200 do
        let src, dst = Stats.Sampler.ordered_pair rng pool in
        if Routing.Outcome.is_delivered (Routing.Router.route table ~rng ~alive ~src ~dst)
        then incr delivered
      done;
      !delivered)

let bench_simulation geometry =
  Test.make
    ~name:(Printf.sprintf "fig6-sim/%s-trial-d12" (Rcm.Geometry.slug geometry))
    (simulation_trial geometry)

let bench_percolation =
  Test.make ~name:"a1/percolation-trial-d12"
    (Staged.stage (fun () ->
         ignore
           (Sim.Percolation.run ~trials:1 ~pairs:200 ~seed:3 ~bits:12 ~q:0.2
              Rcm.Geometry.Ring)))

let bench_replication_analysis =
  Test.make ~name:"a5/replicated-xor-analysis-d16"
    (Staged.stage (fun () -> ignore (Rcm.Replication.routability_xor ~d:16 ~q:0.3 ~k:8)))

let bench_sparse_build =
  Test.make ~name:"e6/sparse-chord-build-1k-in-2^16"
    (Staged.stage (fun () ->
         ignore
           (Overlay.Sparse.build
              ~rng:(Prng.Splitmix.create ~seed:4)
              ~bits:16 ~nodes:1024 Rcm.Geometry.Ring)))

let bench_latency_prediction =
  Test.make ~name:"e7/hops-prediction-ring-d12"
    (Staged.stage (fun () ->
         ignore (Experiments.Latency.predicted_hops Rcm.Geometry.Ring ~d:12 ~q:0.2)))

let bench_session_churn =
  Test.make ~name:"churn/session-run-d8"
    (Staged.stage (fun () ->
         ignore
           (Sim.Session_churn.run
              (Sim.Session_churn.config ~bits:8 ~warmup:10.0 ~measurements:2
                 ~pairs_per_measurement:200 Rcm.Geometry.Xor))))

let all_tests =
  Test.make_grouped ~name:"dht_rcm"
    [
      bench_fig6a_analysis;
      bench_fig6b_analysis;
      bench_fig7a_asymptotic;
      bench_fig7b_sweep;
      bench_classification;
      bench_markov_validation;
      bench_simulation Rcm.Geometry.Tree;
      bench_simulation Rcm.Geometry.Hypercube;
      bench_simulation Rcm.Geometry.Xor;
      bench_simulation Rcm.Geometry.Ring;
      bench_simulation Rcm.Geometry.default_symphony;
      bench_percolation;
      bench_replication_analysis;
      bench_sparse_build;
      bench_latency_prediction;
      bench_session_churn;
    ]

let run_benchmarks () =
  Fmt.pr "==== Micro-benchmarks (Bechamel, monotonic clock) ====@.@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.filter_map (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some [ ns_per_run ] ->
               Fmt.pr "%-45s %14.1f ns/run@." name ns_per_run;
               Some (name, ns_per_run)
           | Some _ | None ->
               Fmt.pr "%-45s (no estimate)@." name;
               None)
  in
  rows

(* --- Part 3: domain-pool wall-clock speedup ------------------------------ *)

(* The same Fig. 6(a)-style q-sweep (d = 12), timed on the strictly
   sequential pre-pool path and on the domain pool with the overlay
   cache — the headline number this PR optimises. Both runs produce
   bit-identical results; only the wall clock moves. *)
let sweep_speedup ?(trials = 4) ?(pairs_per_trial = 600) () =
  let cfg =
    Sim.Estimate.config ~trials ~pairs_per_trial ~seed:1006 ~bits:12 ~q:0.0
      Rcm.Geometry.Xor
  in
  let qs = Experiments.Grid.fig6_q in
  let time f =
    let t0 = Unix.gettimeofday () in
    let result = f () in
    (Unix.gettimeofday () -. t0, result)
  in
  let sequential_s, baseline = time (fun () -> Sim.Estimate.run_sweep cfg qs) in
  let domains = max 2 (Exec.Pool.default_domains ()) in
  let cache = Overlay.Table_cache.create () in
  let parallel_s, pooled =
    Exec.Pool.with_pool ~domains (fun pool ->
        time (fun () -> Sim.Estimate.run_sweep ~pool ~cache cfg qs))
  in
  let identical =
    List.for_all2
      (fun (_, a) (_, b) ->
        a.Sim.Estimate.delivered = b.Sim.Estimate.delivered
        && a.Sim.Estimate.attempted = b.Sim.Estimate.attempted)
      baseline pooled
  in
  if not identical then failwith "bench: pooled sweep diverged from the sequential sweep";
  Fmt.pr "@.==== Wall-clock speedup (fig6-sim q-sweep, d=12, %d trials) ====@.@."
    cfg.Sim.Estimate.trials;
  Fmt.pr "overlay builds: sequential %d, cached %d (cache hits %d)@."
    (List.length qs * cfg.Sim.Estimate.trials)
    (Overlay.Table_cache.misses cache)
    (Overlay.Table_cache.hits cache);
  Fmt.pr "wall-clock speedup: %.2fx (1 domain %.3fs -> %d domains %.3fs)@."
    (sequential_s /. parallel_s) sequential_s domains parallel_s;
  (domains, sequential_s, parallel_s)

(* --- Part 4: overlay backend comparison ---------------------------------- *)

(* Classic (per-node heap arrays) versus flat (shared CSR Bigarrays) at
   large N: build time, routing throughput over one failed instance, the
   table's payload size, and the kernel's peak-RSS reading for the
   phase. The flat backend exists to make bits >= 20 runs fit in
   memory; these records are the evidence. *)
type overlay_record = {
  ob_geometry : string;
  ob_backend : string;
  ob_bits : int;
  ob_build_s : float;
  ob_routes_per_s : float;
  ob_table_bytes : int;
  ob_peak_rss_kb : int;
}

let overlay_backend_bench ~bits ~pairs geometry backend =
  (* Shrink the heap and reset the watermark so the reading reflects
     this (geometry, backend) phase, not an earlier one's high water. *)
  Gc.compact ();
  Obs.Rss.reset_peak ();
  let rng = Prng.Splitmix.create ~seed:99 in
  let t0 = Unix.gettimeofday () in
  let table = Overlay.Table.build ~rng ~backend ~bits geometry in
  let build_s = Unix.gettimeofday () -. t0 in
  let alive = Overlay.Failure.sample ~rng ~q:0.2 (Overlay.Table.node_count table) in
  let pool = Overlay.Failure.survivors alive in
  let t1 = Unix.gettimeofday () in
  let delivered = ref 0 in
  for _ = 1 to pairs do
    let src, dst = Stats.Sampler.ordered_pair rng pool in
    if Routing.Outcome.is_delivered (Routing.Router.route table ~rng ~alive ~src ~dst)
    then incr delivered
  done;
  let route_s = Unix.gettimeofday () -. t1 in
  {
    ob_geometry = Rcm.Geometry.slug geometry;
    ob_backend = Overlay.Table.backend_name backend;
    ob_bits = bits;
    ob_build_s = build_s;
    ob_routes_per_s = (if route_s > 0.0 then float_of_int pairs /. route_s else 0.0);
    ob_table_bytes = Overlay.Table.memory_bytes table;
    ob_peak_rss_kb = Option.value ~default:0 (Obs.Rss.peak_kb ());
  }

let overlay_bench ~bits ~pairs () =
  Fmt.pr "@.==== Overlay backends (classic vs flat, d=%d) ====@.@." bits;
  let records =
    List.concat_map
      (fun geometry ->
        List.map
          (fun backend -> overlay_backend_bench ~bits ~pairs geometry backend)
          [ Overlay.Table.Classic; Overlay.Table.Flat ])
      [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ]
  in
  List.iter
    (fun r ->
      Fmt.pr "%-9s %-8s build %7.3fs  %9.0f routes/s  table %8.1f MiB  peak RSS %7.1f MiB@."
        r.ob_geometry r.ob_backend r.ob_build_s r.ob_routes_per_s
        (float_of_int r.ob_table_bytes /. 1048576.0)
        (float_of_int r.ob_peak_rss_kb /. 1024.0))
    records;
  records

(* The headline capacity claim: a full Estimate q-sweep over ring and
   xor on the flat backend at [bits], with the kernel watermark around
   it. At bits = 20 this is the run that exhausts memory without the
   flat backend and must stay under 8 GiB with it. *)
let flat_sweep_bench ~bits ~trials ~pairs () =
  Gc.compact ();
  Obs.Rss.reset_peak ();
  let qs = [ 0.1; 0.3 ] in
  let geometries = [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun geometry ->
      let cache = Overlay.Table_cache.create () in
      let cfg =
        Sim.Estimate.config ~trials ~pairs_per_trial:pairs ~seed:1006 ~bits ~q:0.0 geometry
      in
      ignore (Sim.Estimate.run_sweep ~cache ~backend:Overlay.Table.Flat cfg qs))
    geometries;
  let wall_s = Unix.gettimeofday () -. t0 in
  let peak_rss_kb = Option.value ~default:0 (Obs.Rss.peak_kb ()) in
  Fmt.pr "@.flat sweep d=%d (ring+xor, %d trials x %d qs x %d pairs): %.3fs, peak RSS %.1f MiB@."
    bits trials (List.length qs) pairs wall_s
    (float_of_int peak_rss_kb /. 1024.0);
  (bits, trials, wall_s, peak_rss_kb)

(* --- Part 5: batch kernel vs scalar router -------------------------------- *)

(* The headline of the batch-kernel PR: per-geometry routes/s of the
   scalar [Router.route] loop against [Route_batch.sample_and_route]
   over the same flat table and failed instance. The batch run first
   replays the scalar run's exact pair count and seed and must deliver
   the same count (the cheap in-bench echo of the bit-identity suite);
   only then is it timed on a larger block so the clock resolution
   does not dominate. *)
type batch_record = {
  bk_geometry : string;
  bk_scalar_routes_per_s : float;
  bk_batch_routes_per_s : float;
  bk_speedup : float;
}

let batch_kernel_bench ~bits ~pairs ~batch_mult geometry =
  let rng = Prng.Splitmix.create ~seed:99 in
  let table = Overlay.Table.build ~rng ~backend:Overlay.Table.Flat ~bits geometry in
  let alive = Overlay.Failure.sample ~rng ~q:0.2 (Overlay.Table.node_count table) in
  let pool = Overlay.Failure.survivors alive in
  let rng_s = Prng.Splitmix.create ~seed:7 in
  let t0 = Unix.gettimeofday () in
  let delivered = ref 0 in
  for _ = 1 to pairs do
    let src, dst = Stats.Sampler.ordered_pair rng_s pool in
    if Routing.Outcome.is_delivered (Routing.Router.route table ~rng:rng_s ~alive ~src ~dst)
    then incr delivered
  done;
  let scalar_s = Unix.gettimeofday () -. t0 in
  let scratch =
    Routing.Route_batch.sample_and_route table
      ~rng:(Prng.Splitmix.create ~seed:7)
      ~alive ~pool ~pairs
  in
  if Routing.Route_batch.delivered_count scratch <> !delivered then
    failwith "bench: batch kernel diverged from the scalar router";
  let rng_b = Prng.Splitmix.create ~seed:7 in
  let batch_pairs = pairs * batch_mult in
  let t1 = Unix.gettimeofday () in
  ignore (Routing.Route_batch.sample_and_route table ~rng:rng_b ~alive ~pool ~pairs:batch_pairs);
  let batch_s = Unix.gettimeofday () -. t1 in
  let per_s pairs s = if s > 0.0 then float_of_int pairs /. s else 0.0 in
  let scalar_rate = per_s pairs scalar_s in
  let batch_rate = per_s batch_pairs batch_s in
  {
    bk_geometry = Rcm.Geometry.slug geometry;
    bk_scalar_routes_per_s = scalar_rate;
    bk_batch_routes_per_s = batch_rate;
    bk_speedup = (if scalar_rate > 0.0 then batch_rate /. scalar_rate else 0.0);
  }

(* The same claim end to end: wall clock of a full Estimate q-sweep
   (ring + xor, flat backend) with the batch kernel on versus off,
   results asserted equal. *)
let batch_sweep_bench ~bits ~trials ~pairs () =
  let qs = [ 0.1; 0.3 ] in
  let geometries = [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ] in
  let run_sweeps () =
    List.map
      (fun geometry ->
        let cache = Overlay.Table_cache.create () in
        let cfg =
          Sim.Estimate.config ~trials ~pairs_per_trial:pairs ~seed:1006 ~bits ~q:0.0
            geometry
        in
        Sim.Estimate.run_sweep ~cache ~backend:Overlay.Table.Flat cfg qs)
      geometries
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let result = f () in
    (Unix.gettimeofday () -. t0, result)
  in
  Routing.Route_batch.set_enabled true;
  let batch_s, batched = time run_sweeps in
  Routing.Route_batch.set_enabled false;
  let scalar_s, scalar = time run_sweeps in
  Routing.Route_batch.set_enabled true;
  let identical =
    List.for_all2
      (List.for_all2 (fun (_, a) (_, b) ->
           a.Sim.Estimate.delivered = b.Sim.Estimate.delivered
           && a.Sim.Estimate.attempted = b.Sim.Estimate.attempted))
      batched scalar
  in
  if not identical then failwith "bench: batch sweep diverged from the scalar sweep";
  (scalar_s, batch_s)

let batch_bench ~bits ~pairs ~batch_mult ~sweep_trials ~sweep_pairs () =
  Fmt.pr "@.==== Batch kernel vs scalar router (flat backend, d=%d) ====@.@." bits;
  let records =
    List.map
      (batch_kernel_bench ~bits ~pairs ~batch_mult)
      [
        Rcm.Geometry.Tree;
        Rcm.Geometry.Hypercube;
        Rcm.Geometry.Xor;
        Rcm.Geometry.Ring;
        Rcm.Geometry.default_symphony;
      ]
  in
  List.iter
    (fun r ->
      Fmt.pr "%-9s scalar %9.0f routes/s  batch %10.0f routes/s  speedup %6.1fx@."
        r.bk_geometry r.bk_scalar_routes_per_s r.bk_batch_routes_per_s r.bk_speedup)
    records;
  let sweep_scalar_s, sweep_batch_s =
    batch_sweep_bench ~bits ~trials:sweep_trials ~pairs:sweep_pairs ()
  in
  Fmt.pr "full sweep d=%d (ring+xor): scalar %.3fs -> batch %.3fs (%.1fx)@." bits
    sweep_scalar_s sweep_batch_s (sweep_scalar_s /. sweep_batch_s);
  (records, sweep_scalar_s, sweep_batch_s)

(* --- Part 6: session-churn steady state ----------------------------------- *)

(* A small routability-vs-churn-rate sweep through the session engine:
   the wall clock tracks the event loop plus k-bucket maintenance cost,
   and the per-point records land in the JSON so the curves themselves
   are regression-checked (validate.ml bounds every field). *)
let churn_bench ~smoke () =
  let cfg =
    {
      Experiments.Churn_curves.default_config with
      bits = (if smoke then 8 else 10);
      session_means = (if smoke then [ 2.0; 8.0 ] else [ 2.0; 8.0; 32.0 ]);
      measurements = (if smoke then 2 else 3);
      pairs = (if smoke then 200 else 400);
    }
  in
  let geometries =
    if smoke then [ Rcm.Geometry.Xor; Rcm.Geometry.Ring ]
    else Experiments.Churn_curves.default_geometries
  in
  let t0 = Unix.gettimeofday () in
  let points = Experiments.Churn_curves.run ~geometries cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  Fmt.pr "@.==== Session churn (steady state, d=%d) ====@.@." cfg.Experiments.Churn_curves.bits;
  Fmt.pr "%a" Experiments.Churn_curves.pp_points points;
  Fmt.pr "churn sweep: %d points in %.3fs@." (List.length points) wall_s;
  (cfg, points, wall_s)

(* --- Part 7: replicated storage -------------------------------------------- *)

(* A small availability-vs-q sweep through the storage layer: the wall
   clock tracks placement, quorum probing and read-repair, and the
   per-point records land in the JSON so the availability and survival
   curves are regression-checked (validate.ml bounds every field and
   cross-checks survival against the Leslie closed form). *)
let storage_bench ~smoke () =
  let cfg =
    {
      Experiments.Storage_sweep.default_config with
      bits = (if smoke then 8 else 10);
      nodes = (if smoke then 128 else 512);
      keys = (if smoke then 16 else 64);
      reads = (if smoke then 64 else 256);
      mode =
        Experiments.Storage_sweep.Static
          {
            qs = (if smoke then [ 0.1; 0.3 ] else [ 0.1; 0.3; 0.5 ]);
            trials = (if smoke then 2 else 4);
          };
    }
  in
  let geometries =
    if smoke then [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ]
    else Experiments.Storage_sweep.default_geometries
  in
  let t0 = Unix.gettimeofday () in
  let points = Experiments.Storage_sweep.run ~geometries cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  Fmt.pr "@.==== Replicated storage (quorum reads + read-repair, d=%d) ====@.@."
    cfg.Experiments.Storage_sweep.bits;
  Fmt.pr "%a" Experiments.Storage_sweep.pp_points points;
  Fmt.pr "storage sweep: %d points in %.3fs@." (List.length points) wall_s;
  (cfg, points, wall_s)

(* --- Part 8: per-node load telemetry --------------------------------------- *)

(* The direct overhead question: the same batched pair block routed
   with a loadmap sink installed versus without (best of three, so a
   stray scheduler hiccup does not become a regression report). The
   counting points are two int stores per hop inside the C drivers, so
   the ratio should stay close to 1. *)
let loadmap_overhead ~bits ~pairs () =
  let rng = Prng.Splitmix.create ~seed:99 in
  let table =
    Overlay.Table.build ~rng ~backend:Overlay.Table.Flat ~bits Rcm.Geometry.Xor
  in
  let alive = Overlay.Failure.sample ~rng ~q:0.2 (Overlay.Table.node_count table) in
  let pool = Overlay.Failure.survivors alive in
  let route () =
    ignore
      (Routing.Route_batch.sample_and_route table
         ~rng:(Prng.Splitmix.create ~seed:7)
         ~alive ~pool ~pairs)
  in
  let time_best f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let base_s = time_best route in
  let lm = Obs.Loadmap.create ~nodes:(Overlay.Table.node_count table) in
  let sink_s = time_best (fun () -> Obs.Loadmap.with_sink lm route) in
  (pairs, base_s, sink_s, if base_s > 0.0 then sink_s /. base_s else 0.0)

(* A small hotspot sweep over both planes: the per-point congestion and
   Gini records land in the JSON so load concentration itself is
   regression-checked (validate.ml bounds every field). *)
let loadmap_bench ~smoke () =
  let cfg =
    {
      Experiments.Hotspot_sweep.default_config with
      bits = (if smoke then 8 else 10);
      pairs = (if smoke then 200 else 1_000);
      qs = (if smoke then [ 0.1; 0.3 ] else [ 0.1; 0.3; 0.5 ]);
      storage_nodes = (if smoke then 128 else 512);
      keys = (if smoke then 16 else 64);
      reads = (if smoke then 64 else 256);
      zipf_ss = (if smoke then [ 0.0; 0.8 ] else [ 0.0; 0.8; 1.2 ]);
      trials = 2;
    }
  in
  let routing_geometries =
    if smoke then [ Rcm.Geometry.Xor; Rcm.Geometry.Ring ]
    else Experiments.Hotspot_sweep.default_routing_geometries
  in
  let storage_geometries =
    if smoke then [ Rcm.Geometry.Ring; Rcm.Geometry.Xor ]
    else Experiments.Hotspot_sweep.default_storage_geometries
  in
  let t0 = Unix.gettimeofday () in
  let points =
    Experiments.Hotspot_sweep.run ~routing_geometries ~storage_geometries cfg
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Fmt.pr "@.==== Per-node load telemetry (hotspot sweep, d=%d) ====@.@."
    cfg.Experiments.Hotspot_sweep.bits;
  Fmt.pr "%a" Experiments.Hotspot_sweep.pp_points points;
  let overhead =
    loadmap_overhead ~bits:cfg.Experiments.Hotspot_sweep.bits
      ~pairs:(if smoke then 20_000 else 100_000)
      ()
  in
  let ov_pairs, base_s, sink_s, ratio = overhead in
  Fmt.pr "loadmap sweep: %d points in %.3fs@." (List.length points) wall_s;
  Fmt.pr "loadmap overhead: %d batched pairs, %.4fs -> %.4fs with sink (%.2fx)@."
    ov_pairs base_s sink_s ratio;
  (cfg, points, wall_s, overhead)

(* --- Part 9: ReCord plugin geometry ---------------------------------------- *)

(* The plugin family through the same harness as the built-ins: per-base
   scalar vs batch routes/s (the batch lane replays the scalar run and
   must deliver the same count, like Part 5), plus the E13 hop-pmf
   total-variation distance between the chain prediction and the
   simulated histogram at h = 4 — the number the runtest tolerance
   pins, recorded here so drift is visible across PRs. *)
let record_geometry h =
  match Rcm.Geometry.of_string (Printf.sprintf "record:h=%d" h) with
  | Ok g -> g
  | Error e -> failwith e

let record_bench ~smoke () =
  (* bits must be divisible by every digit width in the sweep (h = 16
     needs 4); 8 and 12 both qualify. *)
  let bits = if smoke then 8 else 12 in
  Fmt.pr "@.==== ReCord plugin (h-ary recursive rings, d=%d) ====@.@." bits;
  let records =
    List.map
      (fun h ->
        let r =
          batch_kernel_bench ~bits ~pairs:(if smoke then 500 else 2_000)
            ~batch_mult:(if smoke then 10 else 50)
            (record_geometry h)
        in
        Fmt.pr "%-12s scalar %9.0f routes/s  batch %10.0f routes/s  speedup %6.1fx@."
          r.bk_geometry r.bk_scalar_routes_per_s r.bk_batch_routes_per_s r.bk_speedup;
        r)
      [ 2; 4; 16 ]
  in
  let hop_cfg =
    { Experiments.Hop_distribution.default_config with
      bits;
      pairs = (if smoke then 500 else 2_000);
    }
  in
  let g = record_geometry 4 in
  let tv =
    Experiments.Hop_distribution.total_variation
      (Experiments.Hop_distribution.predicted g ~d:bits ~q:hop_cfg.Experiments.Hop_distribution.q)
      (Experiments.Hop_distribution.simulated hop_cfg g)
  in
  Fmt.pr "hop-pmf total variation (record:h=4, chain vs sim): %.4f@." tv;
  (bits, records, tv)

(* --- Machine-readable output --------------------------------------------- *)

let json_escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let write_json rows ~domains ~sequential_s ~parallel_s ~overlay ~flat_sweep ~batch ~churn
    ~storage ~loadmap ~record =
  let tm = Unix.localtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  let path = Printf.sprintf "BENCH_%s.json" date in
  (* Atomic (temp + rename): validate.ml reads these files, and a crash
     mid-write must leave the previous day's record or nothing — never
     truncated JSON. *)
  Obs.Atomic_file.write path (fun oc ->
      Printf.fprintf oc "{\n  \"date\": %S,\n  \"ns_per_run\": {\n" date;
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc "    \"%s\": %.1f%s\n" (json_escape name) ns
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  },\n  \"fig6_sim_sweep\": {\n";
      Printf.fprintf oc "    \"domains\": %d,\n" domains;
      Printf.fprintf oc "    \"sequential_s\": %.6f,\n" sequential_s;
      Printf.fprintf oc "    \"parallel_s\": %.6f,\n" parallel_s;
      Printf.fprintf oc "    \"speedup\": %.4f\n  },\n" (sequential_s /. parallel_s);
      Printf.fprintf oc "  \"overlay\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"geometry\": %S, \"backend\": %S, \"bits\": %d, \"build_s\": %.6f, \
             \"routes_per_s\": %.1f, \"table_bytes\": %d, \"peak_rss_kb\": %d}%s\n"
            r.ob_geometry r.ob_backend r.ob_bits r.ob_build_s r.ob_routes_per_s
            r.ob_table_bytes r.ob_peak_rss_kb
            (if i = List.length overlay - 1 then "" else ","))
        overlay;
      Printf.fprintf oc "  ],\n";
      let sweep_bits, sweep_trials, sweep_wall_s, sweep_rss_kb = flat_sweep in
      Printf.fprintf oc
        "  \"flat_sweep\": {\"bits\": %d, \"trials\": %d, \"wall_s\": %.6f, \
         \"peak_rss_kb\": %d},\n"
        sweep_bits sweep_trials sweep_wall_s sweep_rss_kb;
      let batch_bits, batch_records, batch_sweep_scalar_s, batch_sweep_batch_s = batch in
      Printf.fprintf oc "  \"batch\": {\n    \"bits\": %d,\n    \"kernels\": [\n" batch_bits;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "      {\"geometry\": %S, \"scalar_routes_per_s\": %.1f, \
             \"batch_routes_per_s\": %.1f, \"speedup\": %.4f}%s\n"
            r.bk_geometry r.bk_scalar_routes_per_s r.bk_batch_routes_per_s r.bk_speedup
            (if i = List.length batch_records - 1 then "" else ","))
        batch_records;
      Printf.fprintf oc
        "    ],\n    \"sweep\": {\"scalar_s\": %.6f, \"batch_s\": %.6f, \
         \"speedup\": %.4f}\n  },\n"
        batch_sweep_scalar_s batch_sweep_batch_s
        (batch_sweep_scalar_s /. batch_sweep_batch_s);
      let churn_cfg, churn_points, churn_wall_s = churn in
      Printf.fprintf oc
        "  \"churn\": {\n    \"bits\": %d,\n    \"wall_s\": %.6f,\n    \"points\": [\n"
        churn_cfg.Experiments.Churn_curves.bits churn_wall_s;
      List.iteri
        (fun i p ->
          Printf.fprintf oc "      %s%s\n"
            (Experiments.Churn_curves.to_json churn_cfg p)
            (if i = List.length churn_points - 1 then "" else ","))
        churn_points;
      Printf.fprintf oc "    ]\n  },\n";
      let storage_cfg, storage_points, storage_wall_s = storage in
      Printf.fprintf oc
        "  \"storage\": {\n    \"bits\": %d,\n    \"wall_s\": %.6f,\n    \"points\": [\n"
        storage_cfg.Experiments.Storage_sweep.bits storage_wall_s;
      List.iteri
        (fun i p ->
          Printf.fprintf oc "      %s%s\n"
            (Experiments.Storage_sweep.to_json storage_cfg p)
            (if i = List.length storage_points - 1 then "" else ","))
        storage_points;
      Printf.fprintf oc "    ]\n  },\n";
      let loadmap_cfg, loadmap_points, loadmap_wall_s, overhead = loadmap in
      let ov_pairs, ov_base_s, ov_sink_s, ov_ratio = overhead in
      Printf.fprintf oc
        "  \"loadmap\": {\n    \"bits\": %d,\n    \"wall_s\": %.6f,\n    \
         \"overhead\": {\"pairs\": %d, \"base_s\": %.6f, \"sink_s\": %.6f, \
         \"ratio\": %.4f},\n    \"points\": [\n"
        loadmap_cfg.Experiments.Hotspot_sweep.bits loadmap_wall_s ov_pairs
        ov_base_s ov_sink_s ov_ratio;
      List.iteri
        (fun i p ->
          Printf.fprintf oc "      %s%s\n"
            (Experiments.Hotspot_sweep.to_json loadmap_cfg p)
            (if i = List.length loadmap_points - 1 then "" else ","))
        loadmap_points;
      Printf.fprintf oc "    ]\n  },\n";
      let record_bits, record_records, record_tv = record in
      Printf.fprintf oc "  \"record\": {\n    \"bits\": %d,\n    \"kernels\": [\n" record_bits;
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "      {\"geometry\": %S, \"scalar_routes_per_s\": %.1f, \
             \"batch_routes_per_s\": %.1f, \"speedup\": %.4f}%s\n"
            r.bk_geometry r.bk_scalar_routes_per_s r.bk_batch_routes_per_s r.bk_speedup
            (if i = List.length record_records - 1 then "" else ","))
        record_records;
      Printf.fprintf oc "    ],\n    \"hop_tv\": %.6f\n  },\n" record_tv;
      Printf.fprintf oc "  \"metrics\": %s\n}\n" (Obs.Metrics.to_json ()));
  Fmt.pr "wrote %s@." path

let () =
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let rows =
    if smoke then
      (* CI-sized run: skip figure regeneration and the Bechamel suite,
         exercise only the sweep + metrics + JSON plumbing. *)
      []
    else begin
      regenerate_figures ();
      run_benchmarks ()
    end
  in
  (* The sweep runs with metrics on so the BENCH json carries the
     cache/pool counters alongside the timings; instrumentation never
     reads the simulation PRNG streams, so the results are unaffected. *)
  Obs.Metrics.set_enabled true;
  let domains, sequential_s, parallel_s =
    if smoke then sweep_speedup ~trials:2 ~pairs_per_trial:150 () else sweep_speedup ()
  in
  (* Backend comparison at 2^20 nodes by default (CI smoke shrinks to
     2^12); DHT_RCM_BENCH_BITS overrides either way. *)
  let overlay_bits =
    match Option.bind (Sys.getenv_opt "DHT_RCM_BENCH_BITS") int_of_string_opt with
    | Some b when b >= 4 && b <= Idspace.Space.max_bits -> b
    | Some _ | None -> if smoke then 12 else 20
  in
  let overlay =
    overlay_bench ~bits:overlay_bits ~pairs:(if smoke then 300 else 2_000) ()
  in
  let flat_sweep =
    if smoke then flat_sweep_bench ~bits:overlay_bits ~trials:1 ~pairs:100 ()
    else flat_sweep_bench ~bits:overlay_bits ~trials:2 ~pairs:500 ()
  in
  (* Batch-kernel evidence: routes/s per geometry plus the end-to-end
     sweep wall clock, scalar versus batch, at the same bits as the
     backend comparison. *)
  let batch_records, batch_sweep_scalar_s, batch_sweep_batch_s =
    (* The sweep pair count scales with the table: at small bits the
       build is cheap and 100 pairs suffice, but at bits >= 16 a sweep
       that routes only hundreds of pairs is all table construction and
       says nothing about routing throughput. *)
    let sweep_pairs = if overlay_bits >= 16 then 20_000 else 100 in
    if smoke then
      batch_bench ~bits:overlay_bits ~pairs:1_000 ~batch_mult:20 ~sweep_trials:1
        ~sweep_pairs ()
    else
      batch_bench ~bits:overlay_bits ~pairs:2_000 ~batch_mult:50 ~sweep_trials:2
        ~sweep_pairs:(max 500 sweep_pairs) ()
  in
  let batch = (overlay_bits, batch_records, batch_sweep_scalar_s, batch_sweep_batch_s) in
  let churn = churn_bench ~smoke () in
  let storage = storage_bench ~smoke () in
  let loadmap = loadmap_bench ~smoke () in
  let record = record_bench ~smoke () in
  (* The cumulative process watermark lands in the metrics section as a
     counter, so the JSON's "metrics" block records peak memory even
     where the per-phase resets are unsupported. *)
  Option.iter
    (fun kb -> Obs.Metrics.incr_named ~by:kb "process/peak_rss_kb")
    (Obs.Rss.peak_kb ());
  write_json rows ~domains ~sequential_s ~parallel_s ~overlay ~flat_sweep ~batch ~churn
    ~storage ~loadmap ~record
