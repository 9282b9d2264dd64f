(* The multicore engine's determinism contract: every pool size
   (including the sequential path) produces bit-identical results, and
   the overlay cache is invisible except to the wall clock. *)

let bits_of_float = Int64.bits_of_float

let check_float_bits name a b =
  Alcotest.(check int64) name (bits_of_float a) (bits_of_float b)

let pool_sizes = [ 1; 2; 4 ]

let test_map_preserves_index_order () =
  (* A non-commutative reduction exposes any ordering slip. *)
  let n = 23 in
  let expected = String.concat "," (List.init n string_of_int) in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          let parts = Exec.Pool.map pool n string_of_int in
          Alcotest.(check string)
            (Printf.sprintf "%d domains" domains)
            expected
            (String.concat "," (Array.to_list parts))))
    pool_sizes

let test_map_empty_and_smaller_than_pool () =
  Exec.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "empty" 0 (Array.length (Exec.Pool.map pool 0 Fun.id));
      Alcotest.(check (list int)) "n < domains" [ 0; 1 ]
        (Array.to_list (Exec.Pool.map pool 2 Fun.id)))

let test_map_propagates_exceptions () =
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "task failure re-raised on caller" (Failure "task 7")
        (fun () ->
          ignore (Exec.Pool.map pool 16 (fun i -> if i = 7 then failwith "task 7" else i));
          ());
      (* The pool survives a failed map. *)
      Alcotest.(check int) "pool still usable" 10
        (Array.fold_left ( + ) 0 (Exec.Pool.map pool 5 Fun.id)))

let estimate_config =
  Sim.Estimate.config ~trials:4 ~pairs_per_trial:300 ~seed:11 ~bits:8 ~q:0.3
    Rcm.Geometry.Xor

let check_same_estimate name (a : Sim.Estimate.result) (b : Sim.Estimate.result) =
  Alcotest.(check int) (name ^ ": delivered") a.Sim.Estimate.delivered b.Sim.Estimate.delivered;
  Alcotest.(check int) (name ^ ": attempted") a.Sim.Estimate.attempted b.Sim.Estimate.attempted;
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

let test_estimate_bit_identical_across_domains () =
  let baseline = Sim.Estimate.run estimate_config in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          let cache = Overlay.Table_cache.create () in
          let r = Sim.Estimate.run ~pool ~cache estimate_config in
          check_same_estimate (Printf.sprintf "%d domains" domains) baseline r))
    pool_sizes

let test_estimate_sweep_matches_pointwise_runs () =
  let qs = [ 0.0; 0.2; 0.4 ] in
  let cache = Overlay.Table_cache.create () in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let sweep = Sim.Estimate.run_sweep ~pool ~cache estimate_config qs in
      List.iter2
        (fun q (q', r) ->
          check_float_bits "grid point" q q';
          check_same_estimate
            (Printf.sprintf "q=%.1f" q)
            (Sim.Estimate.run { estimate_config with Sim.Estimate.q })
            r)
        qs sweep;
      (* Overlay reuse across the sweep: one build per trial, the other
         |qs|-1 per trial grid points hit the cache. Concurrent misses
         on the same key may race and build twice (counted as
         double_builds, by design), so assert the race-independent
         quantities: distinct builds, and total lookups. *)
      let misses = Overlay.Table_cache.misses cache in
      let doubled = Overlay.Table_cache.double_builds cache in
      Alcotest.(check int) "distinct builds = trials" estimate_config.Sim.Estimate.trials
        (misses - doubled);
      Alcotest.(check int) "lookups = |qs| * trials"
        (List.length qs * estimate_config.Sim.Estimate.trials)
        (Overlay.Table_cache.hits cache + misses))

let test_percolation_bit_identical_across_domains () =
  let run pool cache =
    Sim.Percolation.run ?pool ?cache ~trials:3 ~pairs:300 ~seed:13 ~bits:8 ~q:0.3
      Rcm.Geometry.Tree
  in
  let baseline = run None None in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          let r = run (Some pool) (Some (Overlay.Table_cache.create ())) in
          let name field = Printf.sprintf "%d domains: %s" domains field in
          check_float_bits (name "pair-connectivity")
            baseline.Sim.Percolation.mean_pair_connectivity
            r.Sim.Percolation.mean_pair_connectivity;
          check_float_bits (name "giant fraction")
            baseline.Sim.Percolation.mean_giant_fraction
            r.Sim.Percolation.mean_giant_fraction;
          check_float_bits (name "routability") baseline.Sim.Percolation.mean_routability
            r.Sim.Percolation.mean_routability))
    pool_sizes

let test_giant_threshold_pool_invariant () =
  let threshold pool =
    Sim.Percolation.giant_threshold ?pool ~trials:2 ~steps:6 ~seed:7 ~bits:8
      Rcm.Geometry.Hypercube
  in
  let baseline = threshold None in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      check_float_bits "2 domains" baseline (threshold (Some pool)))

let test_fig6a_quick_series_byte_identical () =
  let cfg = Experiments.Fig6a.quick_config in
  let render series = Fmt.str "%a" Experiments.Series.pp series in
  let sequential = render (Experiments.Fig6a.run cfg) in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "%d domains" domains)
            sequential
            (render (Experiments.Fig6a.run ~pool cfg))))
    [ 2; 4 ]

let test_table_cache_physically_shares_tables () =
  let cache = Overlay.Table_cache.create () in
  let t1, resume1 = Overlay.Table_cache.get cache ~bits:8 ~build_seed:42L Rcm.Geometry.Xor in
  let t2, resume2 = Overlay.Table_cache.get cache ~bits:8 ~build_seed:42L Rcm.Geometry.Xor in
  Alcotest.(check bool) "same physical table" true (t1 == t2);
  Alcotest.(check int64) "same resume state" resume1 resume2;
  Alcotest.(check int) "one miss" 1 (Overlay.Table_cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Overlay.Table_cache.hits cache);
  let t3, _ = Overlay.Table_cache.get cache ~bits:8 ~build_seed:43L Rcm.Geometry.Xor in
  Alcotest.(check bool) "different seed, different table" true (t1 != t3);
  Alcotest.(check int) "two entries" 2 (Overlay.Table_cache.length cache)

let test_table_cache_evicts_one_entry () =
  (* Regression: inserting past capacity used to wipe the whole cache.
     It must drop exactly the oldest-inserted entry and keep the rest. *)
  let cache = Overlay.Table_cache.create ~capacity:2 () in
  let get seed = ignore (Overlay.Table_cache.get cache ~bits:6 ~build_seed:seed Rcm.Geometry.Xor) in
  get 1L;
  get 2L;
  Alcotest.(check int) "at capacity" 2 (Overlay.Table_cache.length cache);
  get 3L;
  Alcotest.(check int) "still full, not wiped" 2 (Overlay.Table_cache.length cache);
  Alcotest.(check int) "exactly one eviction" 1 (Overlay.Table_cache.evictions cache);
  let misses = Overlay.Table_cache.misses cache in
  get 2L;
  get 3L;
  Alcotest.(check int) "survivors still hit" misses (Overlay.Table_cache.misses cache);
  get 1L;
  Alcotest.(check int) "oldest entry was the one dropped" (misses + 1)
    (Overlay.Table_cache.misses cache)

let test_estimate_sweep_bit_identical_under_eviction () =
  (* 4 trial seeds through a capacity-2 cache: entries are evicted and
     deterministically rebuilt mid-sweep, and the results must still be
     bit-identical to the uncached pointwise runs. *)
  let qs = [ 0.0; 0.2; 0.4 ] in
  let baseline = List.map (fun q -> Sim.Estimate.run { estimate_config with Sim.Estimate.q }) qs in
  let cache = Overlay.Table_cache.create ~capacity:2 () in
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      let sweep = Sim.Estimate.run_sweep ~pool ~cache estimate_config qs in
      List.iter2
        (fun expected (q, r) -> check_same_estimate (Printf.sprintf "q=%.1f" q) expected r)
        baseline sweep);
  Alcotest.(check bool) "evictions actually happened" true
    (Overlay.Table_cache.evictions cache > 0)

let test_table_cache_locked_exception_safe () =
  (* Regression: a raising critical section used to leave the cache
     mutex held, deadlocking the next accessor. *)
  let cache = Overlay.Table_cache.create () in
  (try Overlay.Table_cache.locked cache (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "lock released: accessor does not deadlock" 0
    (Overlay.Table_cache.hits cache)

let test_default_domains_env_parsing () =
  let original = Sys.getenv_opt "DHT_RCM_JOBS" in
  let restore () = Unix.putenv "DHT_RCM_JOBS" (Option.value original ~default:"") in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "DHT_RCM_JOBS" "3";
      Alcotest.(check int) "valid value honoured" 3 (Exec.Pool.default_domains ());
      Unix.putenv "DHT_RCM_JOBS" "0";
      Alcotest.(check bool) "0 rejected, sane fallback" true (Exec.Pool.default_domains () >= 1);
      Unix.putenv "DHT_RCM_JOBS" "banana";
      Alcotest.(check bool) "garbage rejected, sane fallback" true
        (Exec.Pool.default_domains () >= 1))

let test_table_cache_resume_matches_fresh_build () =
  (* A cached trial must consume the PRNG exactly like an uncached one:
     the resume state equals the post-build state of a fresh build. *)
  let geometry = Rcm.Geometry.default_symphony in
  let rng = Prng.Splitmix.of_int64 99L in
  ignore (Overlay.Table.build ~rng ~bits:8 geometry);
  let post_build = Prng.Splitmix.state rng in
  let cache = Overlay.Table_cache.create () in
  let _, resume = Overlay.Table_cache.get cache ~bits:8 ~build_seed:99L geometry in
  Alcotest.(check int64) "resume = post-build state" post_build resume

let suite =
  [
    ("pool: map preserves index order", `Quick, test_map_preserves_index_order);
    ("pool: empty and undersized maps", `Quick, test_map_empty_and_smaller_than_pool);
    ("pool: exceptions propagate", `Quick, test_map_propagates_exceptions);
    ("estimate: bit-identical at 1/2/4 domains", `Quick,
      test_estimate_bit_identical_across_domains);
    ("estimate: sweep = pointwise runs + cache reuse", `Quick,
      test_estimate_sweep_matches_pointwise_runs);
    ("percolation: bit-identical at 1/2/4 domains", `Quick,
      test_percolation_bit_identical_across_domains);
    ("percolation: giant threshold pool-invariant", `Slow,
      test_giant_threshold_pool_invariant);
    ("fig6a: quick series byte-identical seq vs parallel", `Slow,
      test_fig6a_quick_series_byte_identical);
    ("table cache: physical sharing on hits", `Quick,
      test_table_cache_physically_shares_tables);
    ("table cache: resume state = post-build state", `Quick,
      test_table_cache_resume_matches_fresh_build);
    ("table cache: capacity evicts one entry, not all", `Quick,
      test_table_cache_evicts_one_entry);
    ("estimate: sweep bit-identical under cache eviction", `Quick,
      test_estimate_sweep_bit_identical_under_eviction);
    ("table cache: locked releases mutex on raise", `Quick,
      test_table_cache_locked_exception_safe);
    ("pool: DHT_RCM_JOBS parsing and fallback", `Quick,
      test_default_domains_env_parsing);
  ]
