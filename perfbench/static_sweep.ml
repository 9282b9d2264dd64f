(* The static-resilience sweep both d20 workloads run: per geometry,
   [Sim.Estimate.run_sweep] over a q grid on the flat backend with a
   [Table_cache] and the batch kernel (the path a [dhtlab figure] run
   takes), and its traced re-drive through the layers' public
   functions. *)

type config = {
  geometries : Rcm.Geometry.t list;
  bits : int;
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

type point = {
  geometry : Rcm.Geometry.t;
  q : float;
  delivered : int;
  attempted : int;
  hops : int;  (** hops of delivered routes, summed *)
}

let same_point a b =
  Rcm.Geometry.equal a.geometry b.geometry
  && Wl.same_float a.q b.q && a.delivered = b.delivered && a.attempted = b.attempted
  && a.hops = b.hops

let summed_hops s =
  let n = Stats.Summary.count s in
  if n = 0 then 0 else Float.to_int (Float.round (Stats.Summary.mean s *. float_of_int n))

let estimate_config cfg g =
  Sim.Estimate.config ~trials:cfg.trials ~pairs_per_trial:cfg.pairs ~seed:cfg.seed ~bits:cfg.bits
    ~q:(List.hd cfg.qs) g

(* Trial build seeds exactly as [Sim.Estimate] derives them: trial i
   builds from the i-th output of the master stream. *)
let build_seeds cfg =
  let master = Prng.Splitmix.create ~seed:cfg.seed in
  Array.init cfg.trials (fun _ -> Prng.Splitmix.next_int64 master)

(* Each geometry column starts with a full major collection, so the
   previous column's tables (off-heap, freed by finalisers) are gone
   before the next ones are built: peak RSS is one column's, not a
   GC-timing-dependent two. *)
let untraced ?(after = fun _ _ -> ()) cfg ~cache_for =
  List.concat_map
    (fun g ->
      Gc.full_major ();
      let cache = cache_for g in
      let results =
        Sim.Estimate.run_sweep ~cache ~backend:Overlay.Table.Flat (estimate_config cfg g) cfg.qs
      in
      after g cache;
      List.map
        (fun (q, (r : Sim.Estimate.result)) ->
          {
            geometry = g;
            q;
            delivered = r.delivered;
            attempted = r.attempted;
            hops = summed_hops r.hop_summary;
          })
        results)
    cfg.geometries

(* One grid point of the re-drive, a layer per span: [Table_cache.get]
   (a build on the column's first point) -> [Failure.sample] ->
   [Failure.survivors] -> [Route_batch.sample_and_route] -> tally. *)
let traced_point cfg spans ~cache ~seeds g q =
  let sp ~metric name f = Spans.span spans ~metric name f in
  let geo ~metric name f = Spans.geo_span spans ~metric g name f in
  let delivered = ref 0 and attempted = ref 0 in
  let summary = Stats.Summary.create () in
  for t = 0 to cfg.trials - 1 do
    let table, resume =
      geo ~metric:"overlay.build_s" "overlay/build" (fun () ->
          Overlay.Table_cache.get cache ~backend:Overlay.Table.Flat ~bits:cfg.bits
            ~build_seed:seeds.(t) g)
    in
    let rng = Prng.Splitmix.of_int64 resume in
    let alive =
      sp ~metric:"overlay.failure_sample_s" "overlay/failure_sample" (fun () ->
          Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table))
    in
    let pool =
      sp ~metric:"overlay.survivors_s" "overlay/survivors" (fun () ->
          Overlay.Failure.survivors alive)
    in
    if Array.length pool >= 2 then begin
      let scratch =
        geo ~metric:"routing.batch_s" "routing/batch" (fun () ->
            Routing.Route_batch.sample_and_route table ~rng ~alive ~pool ~pairs:cfg.pairs)
      in
      sp ~metric:"sim.tally_s" "sim/tally" (fun () ->
          delivered := !delivered + Routing.Route_batch.delivered_count scratch;
          attempted := !attempted + cfg.pairs;
          List.iter (Stats.Summary.add summary) (Routing.Route_batch.delivered_hops_rev_order scratch))
    end
  done;
  sp ~metric:"sim.tally_s" "sim/tally" (fun () ->
      if !attempted > 0 then
        ignore (Stats.Binomial_ci.wilson ~successes:!delivered ~trials:!attempted ());
      { geometry = g; q; delivered = !delivered; attempted = !attempted; hops = summed_hops summary })

let traced ?(after = fun _ _ -> ()) cfg spans ~cache_for =
  List.concat_map
    (fun g ->
      Gc.full_major ();
      let cache = cache_for g in
      let points = List.map (traced_point cfg spans ~cache ~seeds:(build_seeds cfg) g) cfg.qs in
      after g cache;
      points)
    cfg.geometries

let ops points = List.fold_left (fun n p -> n + p.attempted) 0 points
let diff = Wl.list_diff same_point

(* Routed pairs, delivered hops and kernel throughput per geometry. *)
let counts cfg points rollup =
  let sum g f =
    List.fold_left (fun n p -> if Rcm.Geometry.equal p.geometry g then n + f p else n) 0 points
  in
  Wl.per_geometry "routing.hops" cfg.geometries (fun g -> float_of_int (sum g (fun p -> p.hops)))
  @ Wl.per_geometry "routing.routes_per_s" cfg.geometries (fun g ->
        match Hashtbl.find_opt rollup ("routing.batch_s." ^ Rcm.Geometry.name g) with
        | Some s when s > 0. -> float_of_int (sum g (fun p -> p.attempted)) /. s
        | Some _ | None -> 0.)

(* --- output checks ---------------------------------------------------- *)

(* The table a geometry's cache holds for the sweep's first trial. *)
let cached_table cfg g cache =
  fst
    (Overlay.Table_cache.get cache ~backend:Overlay.Table.Flat ~bits:cfg.bits
       ~build_seed:(build_seeds cfg).(0) g)

(* Batch kernel vs the scalar [Router.route] on 2 000 fixed pairs at
   q = 0.2: outcomes (delivered or stuck node) and hop counts must be
   equal pair for pair, and both paths must leave the PRNG in the same
   state. Each mismatching pair is one failed operation. *)
let batch_vs_scalar cfg g cache =
  let table = cached_table cfg g cache in
  let q = 0.2 and pairs = 2_000 in
  let rng = Prng.Splitmix.create ~seed:(cfg.seed + 1) in
  let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
  let pool = Overlay.Failure.survivors alive in
  let sample = Array.init pairs (fun _ -> Stats.Sampler.ordered_pair rng pool) in
  let rng_batch = Prng.Splitmix.copy rng and rng_scalar = Prng.Splitmix.copy rng in
  let scratch =
    Routing.Route_batch.route_many ~scratch:(Routing.Route_batch.create_scratch ()) table
      ~rng:rng_batch ~alive sample
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun k (src, dst) ->
      let scalar = Routing.Router.route table ~rng:rng_scalar ~alive ~src ~dst in
      if not (Routing.Outcome.equal scalar (Routing.Route_batch.outcome scratch k)) then
        incr mismatches)
    sample;
  if Prng.Splitmix.state rng_batch <> Prng.Splitmix.state rng_scalar then incr mismatches;
  {
    Wl.check = "batch_vs_scalar." ^ Rcm.Geometry.name g;
    attempted = pairs;
    failed = !mismatches;
  }

(* Tree and hypercube have exact RCM closed forms: every simulated
   point must cover [Rcm.Model.routability] with a z = 4 Wilson
   interval widened by 0.005 for the model's own approximation (at
   d = 20, q = 0.1 the gaps are 0.0016 and 0.0003). The xor and
   symphony gaps are known and documented, so they are not checked. *)
let model_checks cfg points =
  List.filter_map
    (fun p ->
      match p.geometry with
      | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube when p.attempted > 0 ->
          let ci = Stats.Binomial_ci.wilson ~z:4. ~successes:p.delivered ~trials:p.attempted () in
          let model = Rcm.Model.routability p.geometry ~d:cfg.bits ~q:p.q in
          Some
            (Wl.check
               (Printf.sprintf "model.%s.q=%g" (Rcm.Geometry.name p.geometry) p.q)
               (model >= Stats.Binomial_ci.lower ci -. 0.005
               && model <= Stats.Binomial_ci.upper ci +. 0.005))
      | _ -> None)
    points

(* Overlay builds paid ([Table_cache] misses plus racy double builds)
   and the flat table size of one geometry's cache. *)
let cache_stats cfg g cache =
  ( g,
    Overlay.Table_cache.misses cache + Overlay.Table_cache.double_builds cache,
    float_of_int (Overlay.Table.memory_bytes (cached_table cfg g cache)) /. 1048576. )

let cache_counts stats =
  ("overlay.builds", float_of_int (List.fold_left (fun n (_, b, _) -> n + b) 0 stats))
  :: List.map (fun (g, _, mb) -> ("overlay.table_mb." ^ Rcm.Geometry.name g, mb)) stats
