(* route-d20: the tree, xor, ring and symphony flat tables at
   N = 2^20 are built into a [Table_cache] as set-up; each repetition
   then routes hundreds of thousands of pairs per (geometry, q) through
   [Sim.Estimate.run_sweep], which hits the cache and hands every pair
   block to [Route_batch.sample_and_route]. Routing is ~90% of the job,
   so a kernel change shows here. Hypercube is left out: its sequential
   lane would take most of the time, and sweep-d20 covers it. *)

let config ~seed =
  {
    Static_sweep.geometries =
      [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring; Rcm.Geometry.default_symphony ];
    bits = 20;
    qs = [ 0.1; 0.2; 0.3 ];
    trials = 1;
    pairs = 300_000;
    seed;
  }

let make ~seed =
  let cfg = config ~seed in
  let caches = ref [] in
  let setup spans =
    (* Free the previous set-up's tables before building new ones. *)
    caches := [];
    Gc.compact ();
    let build_seed = (Static_sweep.build_seeds cfg).(0) in
    caches :=
      List.map
        (fun g ->
          let cache = Overlay.Table_cache.create () in
          let build () =
            ignore
              (Overlay.Table_cache.get cache ~backend:Overlay.Table.Flat ~bits:cfg.bits ~build_seed g)
          in
          (match spans with
          | Some spans -> Spans.geo_span spans ~metric:"overlay.build_s" g "overlay/build" build
          | None -> build ());
          (g, cache))
        cfg.geometries
  in
  let cache_for g = List.assoc g !caches in
  let run () = Static_sweep.untraced cfg ~cache_for in
  let first () =
    let points = run () in
    (points, List.map (fun (g, cache) -> Static_sweep.batch_vs_scalar cfg g cache) !caches)
  in
  Wl.Workload
    {
      setup;
      first;
      run;
      run_traced = (fun spans -> Static_sweep.traced cfg spans ~cache_for);
      ops = Static_sweep.ops;
      diff = Static_sweep.diff;
      checks = Static_sweep.model_checks cfg;
      counts =
        (fun points rollup ->
          Static_sweep.counts cfg points rollup
          @ Static_sweep.cache_counts
              (List.map (fun (g, cache) -> Static_sweep.cache_stats cfg g cache) !caches));
    }
