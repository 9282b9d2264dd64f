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
  reads : Store.tally;
  availability : float option;
  survival : float;
  mean_alive : float;
  load_max : int;
  load_mean : float;
  load_p99 : int;
}

let run geometry cfg ~q ~seed =
  validate cfg;
  Rcm.Spec.check_q q;
  let rng = Prng.Splitmix.create ~seed in
  let reads = Store.tally () in
  let survived = ref 0 in
  let alive_total = ref 0 in
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
    let rank = Overlay.Rank.create alive in
    alive_total := !alive_total + Overlay.Rank.count rank;
    Store.read_batch store ~rng ~rank reads cfg.reads;
    let loads = Store.loads store in
    Array.blit loads 0 all_loads (trial * cfg.nodes) cfg.nodes
  done;
  let load_max, load_mean, load_p99 = Store.load_stats all_loads in
  {
    reads;
    availability = Store.availability reads;
    survival =
      float_of_int !survived /. float_of_int (cfg.keys * cfg.trials);
    mean_alive =
      float_of_int !alive_total /. float_of_int (cfg.trials * cfg.nodes);
    load_max;
    load_mean;
    load_p99;
  }
