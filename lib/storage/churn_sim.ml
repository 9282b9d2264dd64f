type config = {
  bits : int;
  nodes : int;
  keys : int;
  reads : int;
  zipf_s : float;
  quorum : Quorum.t;
  session : Sim.Lifetime.t;
  gap : Sim.Lifetime.t;
  warmup : float;
  measurements : int;
  spacing : float;
}

let validate cfg =
  if cfg.bits < 1 || cfg.bits > 30 then
    invalid_arg "Churn_sim: bits outside 1..30";
  if cfg.nodes < 2 || cfg.nodes > 1 lsl cfg.bits then
    invalid_arg "Churn_sim: nodes outside 2..2^bits";
  if cfg.keys < 1 then invalid_arg "Churn_sim: keys must be >= 1";
  if cfg.reads < 0 then invalid_arg "Churn_sim: reads must be >= 0";
  if (not (Float.is_finite cfg.zipf_s)) || cfg.zipf_s < 0. then
    invalid_arg "Churn_sim: zipf_s must be finite and non-negative";
  if cfg.quorum.Quorum.r > cfg.nodes then
    invalid_arg "Churn_sim: replication degree exceeds node count";
  Sim.Session_churn.check_schedule "Churn_sim" ~warmup:cfg.warmup
    ~measurements:cfg.measurements ~spacing:cfg.spacing

let churn_rate cfg =
  1. /. (Sim.Lifetime.mean cfg.session +. Sim.Lifetime.mean cfg.gap)

type measurement = {
  time : float;
  alive_fraction : float;
  availability : float option;
  survival : float;
}

type result = {
  measurements : measurement list;
  reads : Store.tally;
  availability : float option;
  survival : float;
  mean_alive : float;
  load_max : int;
  load_mean : float;
  load_p99 : int;
  events : int;
}

let run geometry cfg ~seed =
  validate cfg;
  let rng = Prng.Splitmix.create ~seed in
  let overlay =
    Overlay.Sparse.build ~rng ~bits:cfg.bits ~nodes:cfg.nodes geometry
  in
  let store =
    Store.create ~zipf_s:cfg.zipf_s ~keys:cfg.keys ~quorum:cfg.quorum ~rng
      overlay
  in
  let alive = Overlay.Failure.none cfg.nodes in
  let reads = Store.tally () in
  let out = ref [] in
  let measure time =
    let rank = Overlay.Rank.create alive in
    let alive_n = Overlay.Rank.count rank in
    let quorum_before = reads.Store.quorum_reads in
    Store.read_batch store ~rng ~rank reads cfg.reads;
    let availability =
      if alive_n = 0 || cfg.reads = 0 then None
      else
        Some
          (float_of_int (reads.Store.quorum_reads - quorum_before)
          /. float_of_int cfg.reads)
    in
    let survival =
      float_of_int
        (Store.surviving_keys store ~alive ~quorum:cfg.quorum.Quorum.rq)
      /. float_of_int cfg.keys
    in
    out :=
      {
        time;
        alive_fraction = float_of_int alive_n /. float_of_int cfg.nodes;
        availability;
        survival;
      }
      :: !out
  in
  (* The overlay is static: no maintenance ticks, and a rejoining node
     keeps its contacts. *)
  let events =
    Sim.Session_churn.drive ~rng ~alive ~session:cfg.session ~gap:cfg.gap
      ~maintenance:None ~warmup:cfg.warmup ~measurements:cfg.measurements
      ~spacing:cfg.spacing ~rejoin:ignore ~measure
  in
  let measurements = List.rev !out in
  let count = List.length measurements in
  let mean f =
    List.fold_left (fun acc m -> acc +. f m) 0. measurements
    /. float_of_int count
  in
  let load_max, load_mean, load_p99 = Store.load_stats (Store.loads store) in
  {
    measurements;
    reads;
    availability = Store.availability reads;
    survival = mean (fun m -> m.survival);
    mean_alive = mean (fun m -> m.alive_fraction);
    load_max;
    load_mean;
    load_p99;
    events;
  }
