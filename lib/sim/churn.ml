type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  mean_uptime : float;
  mean_downtime : float;
  repair_interval : float;
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs_per_measurement : int;
  seed : int;
}

let config ?(bits = 10) ?(mean_uptime = 8.0) ?(mean_downtime = 2.0) ?(repair_interval = 1.0)
    ?(warmup = 20.0) ?(measurements = 5) ?(measurement_spacing = 2.0)
    ?(pairs_per_measurement = 800) ?(seed = 808) geometry =
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive mean_uptime && positive mean_downtime) then
    invalid_arg "Churn.config: lifetimes must be positive and finite";
  if not (positive repair_interval) then
    invalid_arg "Churn.config: repair interval must be positive and finite";
  if measurements < 1 then invalid_arg "Churn.config: need at least one measurement";
  if not (Float.is_finite warmup && warmup >= 0.0 && positive measurement_spacing) then
    invalid_arg "Churn.config: bad measurement schedule";
  if pairs_per_measurement < 1 then
    invalid_arg "Churn.config: need at least one pair per measurement";
  (match geometry with
  | Rcm.Geometry.Xor | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> ()
  | Rcm.Geometry.Custom { family; _ } ->
      if not (Churn_profile.registered ~family) then
        invalid_arg
          (Printf.sprintf "Churn.config: family %S has no registered churn profile"
             family)
  | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube ->
      invalid_arg
        "Churn.config: supported geometries are xor, ring, symphony and custom \
         families with a churn profile");
  {
    geometry;
    bits;
    mean_uptime;
    mean_downtime;
    repair_interval;
    warmup;
    measurements;
    measurement_spacing;
    pairs_per_measurement;
    seed;
  }

type measurement = {
  time : float;
  alive_fraction : float;
  stale_fraction : float;
  stale_near : float;
  stale_shortcut : float;
  routability : float option;
  static_prediction : float;
}

type report = {
  config : config;
  measurements : measurement list;
  mean_alive : float;
  mean_stale : float;
  mean_routability : float;
  mean_prediction : float;
  no_pair_measurements : int;
}

type event = Toggle of int | Repair of int | Measure

let exponential rng ~mean = -.mean *. Float.log1p (-.Prng.Splitmix.float rng)

(* Repair semantics: dead entries of a row are replaced by a fresh draw
   from the slot's candidate set, preferring currently-alive targets
   (bounded rejection sampling); alive entries are left untouched.
   Deterministic slots (ring fingers, symphony near neighbours) have a
   single candidate, so their staleness can only heal when the target
   itself returns — exactly the paper's point that detection is fast
   but re-establishing connections is the hard part. *)
let refresh_entry cfg ~profile rng ~alive ~v ~slot ~current =
  let bits = cfg.bits in
  let size = 1 lsl bits in
  let attempt_alive draw =
    let rec try_draw attempts =
      let candidate = draw () in
      if Overlay.Failure.get alive candidate || attempts >= 8 then candidate else try_draw (attempts + 1)
    in
    try_draw 0
  in
  match (cfg.geometry, profile) with
  | Rcm.Geometry.Xor, _ ->
      let level = slot + 1 in
      let flipped = Idspace.Id.flip_bit ~bits v level in
      attempt_alive (fun () ->
          let suffix = Prng.Splitmix.int rng size in
          Idspace.Id.with_suffix ~bits flipped ~prefix_len:level ~suffix)
  | Rcm.Geometry.Ring, _ -> current
  | Rcm.Geometry.Symphony { k_n; k_s = _ }, _ ->
      if slot < k_n then current
      else
        attempt_alive (fun () ->
            (v + Prng.Splitmix.harmonic_int rng ~n:(size - 1)) land (size - 1))
  | _, Some profile ->
      if slot < profile.Churn_profile.near_slots then current
      else attempt_alive (fun () -> profile.Churn_profile.redraw rng ~v ~slot)
  | (Rcm.Geometry.Tree | Rcm.Geometry.Hypercube | Rcm.Geometry.Custom _), None ->
      (* Rejected by [config], or resolved by [run]. *)
      assert false

let repair_row cfg ~profile rng ~alive ~neighbors v =
  let row = neighbors.(v) in
  Array.iteri
    (fun slot target ->
      if not (Overlay.Failure.get alive target) then
        row.(slot) <- refresh_entry cfg ~profile rng ~alive ~v ~slot ~current:target)
    row

(* Stale-entry fractions, overall and split by link class: slots below
   [near_slots] are positional near links (unrepairable in place), the
   rest are re-drawable. For geometries with a single class the split
   degenerates to the overall number. *)
let stale_fractions ~alive ~near_slots neighbors =
  let stale = [| 0; 0 |] in
  let total = [| 0; 0 |] in
  Array.iteri
    (fun v row ->
      if Overlay.Failure.get alive v then
        Array.iteri
          (fun slot target ->
            let cls = if slot < near_slots then 0 else 1 in
            total.(cls) <- total.(cls) + 1;
            if not (Overlay.Failure.get alive target) then stale.(cls) <- stale.(cls) + 1)
          row)
    neighbors;
  let fraction cls = if total.(cls) = 0 then 0.0 else float_of_int stale.(cls) /. float_of_int total.(cls) in
  let overall =
    let t = total.(0) + total.(1) in
    if t = 0 then 0.0 else float_of_int (stale.(0) + stale.(1)) /. float_of_int t
  in
  (overall, fraction 0, fraction 1)

let measure cfg ~profile rng ~alive ~table ~neighbors ~time =
  let n = 1 lsl cfg.bits in
  let pool = Overlay.Failure.survivors alive in
  (* Fewer than two survivors means there is no pair to route: that is
     "no data", not routability 0 — fabricating a zero would drag the
     report means down with a statistic that was never measured. *)
  let routability =
    if Array.length pool < 2 then None
    else begin
      let delivered = ref 0 in
      for _ = 1 to cfg.pairs_per_measurement do
        let src, dst = Stats.Sampler.ordered_pair rng pool in
        if Routing.Outcome.is_delivered (Routing.Router.route table ~rng ~alive ~src ~dst)
        then incr delivered
      done;
      Some (float_of_int !delivered /. float_of_int cfg.pairs_per_measurement)
    end
  in
  let near_slots =
    match (cfg.geometry, profile) with
    | Rcm.Geometry.Symphony { k_n; _ }, _ -> k_n
    | _, Some p -> p.Churn_profile.near_slots
    | _, None -> 0
  in
  let stale, stale_near, stale_shortcut = stale_fractions ~alive ~near_slots neighbors in
  (* For Symphony the two link classes age differently; the
     heterogeneous form of Eq. 7 takes each class's measured staleness.
     Custom families bring their own churn-to-static bridge. *)
  let static_prediction =
    match cfg.geometry with
    | Rcm.Geometry.Symphony { k_n; k_s } ->
        Rcm.Engine.routability
          (Rcm.Symphony.spec_heterogeneous ~q_near:stale_near ~k_n ~k_s)
          ~d:cfg.bits ~q:stale_shortcut
    | Rcm.Geometry.Custom _ ->
        let p = Option.get profile in
        p.Churn_profile.prediction ~bits:cfg.bits ~stale ~stale_near ~stale_shortcut
    | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube | Rcm.Geometry.Xor | Rcm.Geometry.Ring ->
        Rcm.Model.routability cfg.geometry ~d:cfg.bits ~q:stale
  in
  {
    time;
    alive_fraction = float_of_int (Array.length pool) /. float_of_int n;
    stale_fraction = stale;
    stale_near;
    stale_shortcut;
    routability;
    static_prediction;
  }

let run cfg =
  let rng = Prng.Splitmix.create ~seed:cfg.seed in
  let n = 1 lsl cfg.bits in
  (* A custom family's profile is resolved once here and passed down,
     not per redrawn slot. *)
  let profile =
    match cfg.geometry with
    | Rcm.Geometry.Custom _ ->
        Some (Churn_profile.resolve_exn "Churn.run" cfg.geometry ~bits:cfg.bits)
    | _ -> None
  in
  let base = Overlay.Table.build ~rng ~bits:cfg.bits cfg.geometry in
  (* Copy rows so the churn process owns a mutable matrix. *)
  let neighbors = Array.init n (fun v -> Array.copy (Overlay.Table.neighbors base v)) in
  let table = Overlay.Table.of_neighbors ~bits:cfg.bits cfg.geometry neighbors in
  let alive = Overlay.Failure.none n in
  let queue = Event_queue.create ~filler:Measure in
  for v = 0 to n - 1 do
    Event_queue.add queue ~time:(exponential rng ~mean:cfg.mean_uptime) (Toggle v);
    Event_queue.add queue
      ~time:(Prng.Splitmix.float rng *. cfg.repair_interval)
      (Repair v)
  done;
  for i = 0 to cfg.measurements - 1 do
    Event_queue.add queue
      ~time:(cfg.warmup +. (float_of_int i *. cfg.measurement_spacing))
      Measure
  done;
  let horizon = cfg.warmup +. (float_of_int cfg.measurements *. cfg.measurement_spacing) in
  let out = ref [] in
  let rec loop () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (time, _) when time > horizon -> ()
    | Some (time, Toggle v) ->
        if Overlay.Failure.get alive v then begin
          Overlay.Failure.set alive v false;
          Event_queue.add queue ~time:(time +. exponential rng ~mean:cfg.mean_downtime)
            (Toggle v)
        end
        else begin
          Overlay.Failure.set alive v true;
          (* A rejoining node rebuilds its entire routing table. *)
          Array.iteri
            (fun slot current ->
              neighbors.(v).(slot) <-
                refresh_entry cfg ~profile rng ~alive ~v ~slot ~current)
            neighbors.(v);
          Event_queue.add queue ~time:(time +. exponential rng ~mean:cfg.mean_uptime)
            (Toggle v)
        end;
        loop ()
    | Some (time, Repair v) ->
        if Overlay.Failure.get alive v then repair_row cfg ~profile rng ~alive ~neighbors v;
        Event_queue.add queue ~time:(time +. cfg.repair_interval) (Repair v);
        loop ()
    | Some (time, Measure) ->
        out := measure cfg ~profile rng ~alive ~table ~neighbors ~time :: !out;
        loop ()
  in
  loop ();
  let measurements = List.rev !out in
  let mean f =
    List.fold_left (fun acc m -> acc +. f m) 0.0 measurements
    /. float_of_int (List.length measurements)
  in
  (* Measurements with no routable pair carry no routability sample:
     they are excluded from the mean (nan if none remain) and counted
     in [no_pair_measurements] instead. *)
  let routable = List.filter_map (fun m -> m.routability) measurements in
  let mean_routability =
    match routable with
    | [] -> Float.nan
    | rs -> List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)
  in
  {
    config = cfg;
    measurements;
    mean_alive = mean (fun m -> m.alive_fraction);
    mean_stale = mean (fun m -> m.stale_fraction);
    mean_routability;
    mean_prediction = mean (fun m -> m.static_prediction);
    no_pair_measurements = List.length measurements - List.length routable;
  }

let expected_down_fraction cfg =
  cfg.mean_downtime /. (cfg.mean_uptime +. cfg.mean_downtime)

let pp_report ppf r =
  Fmt.pf ppf
    "%a d=%d up=%.1f down=%.1f repair=%.2f: alive %.3f, stale %.4f, routability %.4f (static @ q_stale: %.4f)"
    Rcm.Geometry.pp r.config.geometry r.config.bits r.config.mean_uptime
    r.config.mean_downtime r.config.repair_interval r.mean_alive r.mean_stale
    r.mean_routability r.mean_prediction;
  if r.no_pair_measurements > 0 then
    Fmt.pf ppf " [%d measurement%s with no routable pairs]" r.no_pair_measurements
      (if r.no_pair_measurements = 1 then "" else "s")
