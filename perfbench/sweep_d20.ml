(* sweep-d20: the Fig. 6 static sweep at N = 2^20, shaped like a
   [dhtlab figure] run — all five paper geometries over the 0–0.5 q
   grid, one fresh [Table_cache] per geometry column, so every
   repetition pays its overlay builds, failure sampling, routing and
   tallying. *)

let config ~seed =
  {
    Static_sweep.geometries = Rcm.Geometry.all_default;
    bits = 20;
    qs = Experiments.Grid.floats ~lo:0.0 ~hi:0.5 ~steps:6;
    trials = 1;
    pairs = 5_000;
    seed;
  }

let make ~seed =
  let cfg = config ~seed in
  (* Build counts and table sizes of the last traced repetition, taken
     as each geometry column ends so that no table outlives its column. *)
  let traced_stats = ref [] in
  let fresh _ = Overlay.Table_cache.create () in
  let first () =
    let checks = ref [] in
    let after g cache = checks := Static_sweep.batch_vs_scalar cfg g cache :: !checks in
    let points = Static_sweep.untraced ~after cfg ~cache_for:fresh in
    (points, List.rev !checks)
  in
  let run_traced spans =
    traced_stats := [];
    let after g cache = traced_stats := Static_sweep.cache_stats cfg g cache :: !traced_stats in
    Static_sweep.traced ~after cfg spans ~cache_for:fresh
  in
  Wl.Workload
    {
      setup = (fun _ -> ());
      first;
      run = (fun () -> Static_sweep.untraced cfg ~cache_for:fresh);
      run_traced;
      ops = Static_sweep.ops;
      diff = Static_sweep.diff;
      checks = Static_sweep.model_checks cfg;
      counts =
        (fun points rollup ->
          Static_sweep.counts cfg points rollup @ Static_sweep.cache_counts (List.rev !traced_stats));
    }
