type config = {
  bits : int;
  nodes : int;
  keys : int;
  reads : int;
  zipf_s : float;
  quorum : Quorum.t;
  trials : int;
}

let validate cfg =
  if cfg.bits < 1 || cfg.bits > 30 then
    invalid_arg "Failure_sim: bits outside 1..30";
  if cfg.nodes < 2 || cfg.nodes > 1 lsl cfg.bits then
    invalid_arg "Failure_sim: nodes outside 2..2^bits";
  if cfg.keys < 1 then invalid_arg "Failure_sim: keys must be >= 1";
  if cfg.reads < 0 then invalid_arg "Failure_sim: reads must be >= 0";
  if (not (Float.is_finite cfg.zipf_s)) || cfg.zipf_s < 0. then
    invalid_arg "Failure_sim: zipf_s must be finite and non-negative";
  if cfg.trials < 1 then invalid_arg "Failure_sim: trials must be >= 1";
  if cfg.quorum.Quorum.r > cfg.nodes then
    invalid_arg "Failure_sim: replication degree exceeds node count"

type result = {
  attempted : int;
  quorum_reads : int;
  degraded_reads : int;
  failed_reads : int;
  no_client : int;
  availability : float option;
  survival : float;
  mean_alive : float;
  probe_routes : int;
  repair_routes : int;
  repair_transfers : int;
  load_max : int;
  load_mean : float;
  load_p99 : int;
}

let run geometry cfg ~q ~seed =
  validate cfg;
  Rcm.Spec.check_q q;
  let rng = Prng.Splitmix.create ~seed in
  let attempted = ref 0 in
  let quorum_reads = ref 0 in
  let degraded_reads = ref 0 in
  let failed_reads = ref 0 in
  let no_client = ref 0 in
  let survived = ref 0 in
  let alive_total = ref 0 in
  let probe_routes = ref 0 in
  let repair_routes = ref 0 in
  let repair_transfers = ref 0 in
  let all_loads = Array.make (cfg.trials * cfg.nodes) 0 in
  for trial = 0 to cfg.trials - 1 do
    let overlay = Overlay.Sparse.build ~rng ~bits:cfg.bits ~nodes:cfg.nodes geometry in
    let store =
      Store.create ~zipf_s:cfg.zipf_s ~keys:cfg.keys ~quorum:cfg.quorum ~rng
        overlay
    in
    let alive = Overlay.Failure.sample ~rng ~q cfg.nodes in
    survived :=
      !survived + Store.surviving_keys store ~alive ~quorum:cfg.quorum.Quorum.rq;
    let survivors = Overlay.Failure.survivors alive in
    let alive_n = Array.length survivors in
    alive_total := !alive_total + alive_n;
    if alive_n = 0 then no_client := !no_client + cfg.reads
    else
      for _ = 1 to cfg.reads do
        let client = survivors.(Prng.Splitmix.int rng alive_n) in
        let stats = Store.read store ~rng ~alive ~client in
        incr attempted;
        (match stats.Store.outcome with
        | Quorum.Quorum -> incr quorum_reads
        | Quorum.Degraded _ -> incr degraded_reads
        | Quorum.Unavailable -> incr failed_reads);
        probe_routes := !probe_routes + stats.Store.probe_routes;
        repair_routes := !repair_routes + stats.Store.repair_routes;
        repair_transfers := !repair_transfers + stats.Store.repair_transfers
      done;
    let loads = Store.loads store in
    Array.blit loads 0 all_loads (trial * cfg.nodes) cfg.nodes
  done;
  let load_max, load_mean, load_p99 = Store.load_stats all_loads in
  {
    attempted = !attempted;
    quorum_reads = !quorum_reads;
    degraded_reads = !degraded_reads;
    failed_reads = !failed_reads;
    no_client = !no_client;
    availability =
      (if !attempted = 0 then None
       else Some (float_of_int !quorum_reads /. float_of_int !attempted));
    survival =
      float_of_int !survived /. float_of_int (cfg.keys * cfg.trials);
    mean_alive =
      float_of_int !alive_total /. float_of_int (cfg.trials * cfg.nodes);
    probe_routes = !probe_routes;
    repair_routes = !repair_routes;
    repair_transfers = !repair_transfers;
    load_max;
    load_mean;
    load_p99;
  }
