(* storage: a static-mode [Experiments.Storage_sweep]. It measures what
   no other workload reaches — [Overlay.Sparse], [Storage.Placement]
   and [Storage.Store], and the [Sparse_router] quorum reads — and its
   read-repair writes to holder sets beside the other workloads' reads.
   One operation is one quorum read. *)

let trials = 4
let qs = [ 0.1; 0.2; 0.3; 0.4; 0.5 ]

let config ~seed =
  {
    Experiments.Storage_sweep.default_config with
    bits = 12;
    nodes = 2048;
    keys = 256;
    reads = 2048;
    mode = Experiments.Storage_sweep.Static { qs; trials };
    seed;
  }

let geometries = Experiments.Storage_sweep.default_geometries

type point = {
  geometry : Rcm.Geometry.t;
  r : int;
  q : float;
  attempted : int;
  quorum_reads : int;
  degraded_reads : int;
  failed_reads : int;
  survival : float;
  probe_routes : int;
  repair_routes : int;
  repair_transfers : int;
}

let same a b =
  Rcm.Geometry.equal a.geometry b.geometry
  && a.r = b.r && Wl.same_float a.q b.q && a.attempted = b.attempted
  && a.quorum_reads = b.quorum_reads && a.degraded_reads = b.degraded_reads
  && a.failed_reads = b.failed_reads && Wl.same_float a.survival b.survival
  && a.probe_routes = b.probe_routes && a.repair_routes = b.repair_routes
  && a.repair_transfers = b.repair_transfers

let untraced cfg =
  Experiments.Storage_sweep.run ~geometries cfg
  |> List.map (fun (p : Experiments.Storage_sweep.point) ->
         {
           geometry = p.geometry;
           r = p.r;
           q = p.axis;
           attempted = p.attempted;
           quorum_reads = p.quorum_reads;
           degraded_reads = p.degraded_reads;
           failed_reads = p.failed_reads;
           survival = p.survival;
           probe_routes = p.probe_routes;
           repair_routes = p.repair_routes;
           repair_transfers = p.repair_transfers;
         })

(* One grid point as [Storage.Failure_sim.run] computes it, a layer per
   span: [Sparse.build] -> [Store.create] -> [Failure.sample] ->
   [Store.surviving_keys] -> [Failure.survivors] -> the quorum reads
   ([Store.read], with read-repair) -> the load tally. *)
let traced_point (cfg : Experiments.Storage_sweep.config) spans g ~quorum ~q ~seed =
  let sp ~metric name f = Spans.span spans ~metric name f in
  let rng = Prng.Splitmix.create ~seed in
  let attempted = ref 0 and quorum_reads = ref 0 and degraded_reads = ref 0 in
  let failed_reads = ref 0 and survived = ref 0 in
  let probe_routes = ref 0 and repair_routes = ref 0 and repair_transfers = ref 0 in
  let all_loads = Array.make (trials * cfg.nodes) 0 in
  for trial = 0 to trials - 1 do
    let overlay =
      sp ~metric:"overlay.sparse_build_s" "overlay/sparse_build" (fun () ->
          Overlay.Sparse.build ~rng ~bits:cfg.bits ~nodes:cfg.nodes g)
    in
    let store =
      sp ~metric:"storage.create_s" "storage/create" (fun () ->
          Storage.Store.create ~zipf_s:cfg.zipf_s ~keys:cfg.keys ~quorum ~rng overlay)
    in
    let alive =
      sp ~metric:"overlay.failure_sample_s" "overlay/failure_sample" (fun () ->
          Overlay.Failure.sample ~rng ~q cfg.nodes)
    in
    sp ~metric:"storage.survival_s" "storage/survival" (fun () ->
        survived :=
          !survived + Storage.Store.surviving_keys store ~alive ~quorum:quorum.Storage.Quorum.rq);
    let survivors =
      sp ~metric:"overlay.survivors_s" "overlay/survivors" (fun () ->
          Overlay.Failure.survivors alive)
    in
    let alive_n = Array.length survivors in
    if alive_n > 0 then
      sp ~metric:"storage.read_s" "storage/read" (fun () ->
          for _ = 1 to cfg.reads do
            let client = survivors.(Prng.Splitmix.int rng alive_n) in
            let stats = Storage.Store.read store ~rng ~alive ~client in
            incr attempted;
            (match stats.Storage.Store.outcome with
            | Storage.Quorum.Quorum -> incr quorum_reads
            | Storage.Quorum.Degraded _ -> incr degraded_reads
            | Storage.Quorum.Unavailable -> incr failed_reads);
            probe_routes := !probe_routes + stats.Storage.Store.probe_routes;
            repair_routes := !repair_routes + stats.Storage.Store.repair_routes;
            repair_transfers := !repair_transfers + stats.Storage.Store.repair_transfers
          done);
    sp ~metric:"sim.tally_s" "sim/tally" (fun () ->
        Array.blit (Storage.Store.loads store) 0 all_loads (trial * cfg.nodes) cfg.nodes)
  done;
  sp ~metric:"sim.tally_s" "sim/tally" (fun () -> Array.sort compare all_loads);
  {
    geometry = g;
    r = quorum.Storage.Quorum.r;
    q;
    attempted = !attempted;
    quorum_reads = !quorum_reads;
    degraded_reads = !degraded_reads;
    failed_reads = !failed_reads;
    survival = float_of_int !survived /. float_of_int (cfg.keys * trials);
    probe_routes = !probe_routes;
    repair_routes = !repair_routes;
    repair_transfers = !repair_transfers;
  }

(* Grid order and seeds exactly as [Storage_sweep] derives them:
   geometry-major, then r, then q; point i runs on the i-th master
   output masked to 48 bits. *)
let traced (cfg : Experiments.Storage_sweep.config) spans =
  let master = Prng.Splitmix.create ~seed:cfg.seed in
  List.concat_map
    (fun g ->
      List.concat_map
        (fun r ->
          let quorum = Experiments.Storage_sweep.quorum_for cfg ~r in
          List.map
            (fun q ->
              let seed = Int64.to_int (Prng.Splitmix.next_int64 master) land 0xFFFF_FFFF_FFFF in
              traced_point cfg spans g ~quorum ~q ~seed)
            qs)
        cfg.rs)
    geometries

(* Leslie's closed form P(Bin(r, 1-q) >= rq) must lie in the Wilson
   interval (z = 4.5) of the measured replica survival. Each key is one
   Bernoulli trial — its replicas sit on distinct nodes that fail
   independently — but keys whose replica sets overlap fail together,
   so the interval counts keys x trials / r effective samples rather
   than keys x trials. *)
let checks (cfg : Experiments.Storage_sweep.config) points =
  List.map
    (fun p ->
      let quorum = Experiments.Storage_sweep.quorum_for cfg ~r:p.r in
      let n = cfg.keys * trials / p.r in
      let successes = Float.to_int (Float.round (p.survival *. float_of_int n)) in
      let ci = Stats.Binomial_ci.wilson ~z:4.5 ~successes ~trials:n () in
      let leslie = Rcm.Data_availability.replica_survival ~q:p.q ~r:p.r ~quorum:quorum.Storage.Quorum.rq in
      Wl.check
        (Printf.sprintf "leslie.%s.r=%d.q=%g" (Rcm.Geometry.name p.geometry) p.r p.q)
        (Stats.Binomial_ci.contains ci leslie))
    points

let make ~seed =
  let cfg = config ~seed in
  Wl.Workload
    {
      setup = (fun _ -> Experiments.Storage_sweep.validate cfg);
      first = (fun () -> (untraced cfg, []));
      run = (fun () -> untraced cfg);
      run_traced = traced cfg;
      ops = List.fold_left (fun n p -> n + p.attempted) 0;
      diff = Wl.list_diff same;
      checks = checks cfg;
      counts =
        (fun points _ ->
          let sum f = float_of_int (List.fold_left (fun n p -> n + f p) 0 points) in
          [
            ("storage.probe_routes", sum (fun p -> p.probe_routes));
            ("storage.repair_routes", sum (fun p -> p.repair_routes));
            ("storage.repair_transfers", sum (fun p -> p.repair_transfers));
          ]);
    }
