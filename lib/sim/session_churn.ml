type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  session : Lifetime.t;
  gap : Lifetime.t;
  maintenance_interval : float;
  k : int;
  cache_k : int;
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs_per_measurement : int;
  seed : int;
}

let check_schedule context ~warmup ~measurements ~spacing =
  if measurements < 1 then invalid_arg (context ^ ": need at least one measurement");
  (* An infinite warmup would never reach the first measurement, and a
     nan time would be rejected only by the event queue mid-run. *)
  if not (Float.is_finite warmup && warmup >= 0.0 && Float.is_finite spacing && spacing > 0.0)
  then invalid_arg (context ^ ": bad measurement schedule")

let config ?(bits = 10) ?(session = Lifetime.exponential ~mean:8.0)
    ?(gap = Lifetime.exponential ~mean:2.0) ?(maintenance_interval = 1.0) ?(k = 4)
    ?(cache_k = 4) ?(warmup = 20.0) ?(measurements = 5) ?(measurement_spacing = 2.0)
    ?(pairs_per_measurement = 800) ?(seed = 808) geometry =
  Rcm.Geometry.check_size_exn "Session_churn.config" ~bits geometry;
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive maintenance_interval) then
    invalid_arg "Session_churn.config: maintenance interval must be positive and finite";
  if k < 1 then invalid_arg "Session_churn.config: k < 1";
  if cache_k < 0 then invalid_arg "Session_churn.config: cache_k < 0";
  check_schedule "Session_churn.config" ~warmup ~measurements ~spacing:measurement_spacing;
  if pairs_per_measurement < 1 then
    invalid_arg "Session_churn.config: need at least one pair per measurement";
  (* Resolving a custom family's profile checks its registration. *)
  (match geometry with
  | Rcm.Geometry.Custom _ ->
      ignore (Churn_profile.resolve_exn "Session_churn.config" geometry ~bits)
  | _ -> ());
  {
    geometry;
    bits;
    session;
    gap;
    maintenance_interval;
    k;
    cache_k;
    warmup;
    measurements;
    measurement_spacing;
    pairs_per_measurement;
    seed;
  }

let churn_rate cfg = 1.0 /. (Lifetime.mean cfg.session +. Lifetime.mean cfg.gap)

let expected_availability cfg =
  Lifetime.mean cfg.session /. (Lifetime.mean cfg.session +. Lifetime.mean cfg.gap)

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
  events_processed : int;
}

(* An event is one [int] payload in the queue: node·4 + kind, with a
   measurement as node 0. An immediate payload allocates nothing and
   needs no write barrier when the heap moves it. *)
let depart = 0
and arrive = 1
and maintain = 2
and measure_event = 3

(* The one session/gap event loop; the interface documents its draw
   order, which every caller's output depends on. *)
let drive ~rng ~alive ~session ~gap ~maintenance ~warmup ~measurements ~spacing ~rejoin
    ~measure =
  (* Maintenance ticks ride the queue's periodic lane, which re-arms
     each one [interval] later as it pops, with the next sequence
     number: the one a re-add right after the pop would take. *)
  let queue =
    match maintenance with
    | Some (interval, _) -> Event_queue.create ~interval ()
    | None -> Event_queue.create ()
  in
  for v = 0 to Overlay.Failure.length alive - 1 do
    Event_queue.add queue ~time:(Lifetime.draw session rng) ((4 * v) + depart);
    match maintenance with
    | Some (interval, _) ->
        Event_queue.add_periodic queue
          ~time:(Prng.Splitmix.float rng *. interval)
          ((4 * v) + maintain)
    | None -> ()
  done;
  for i = 0 to measurements - 1 do
    Event_queue.add queue ~time:(warmup +. (float_of_int i *. spacing)) measure_event
  done;
  let horizon = warmup +. (float_of_int measurements *. spacing) in
  let rec loop events =
    if Event_queue.is_empty queue then events
    else begin
      let time = Event_queue.min_time queue in
      if time > horizon then events
      else begin
        let ev = Event_queue.pop queue in
        let v = ev lsr 2 and kind = ev land 3 in
        if kind = depart then begin
          Overlay.Failure.set alive v false;
          Event_queue.add queue ~time:(time +. Lifetime.draw gap rng) ((4 * v) + arrive)
        end
        else if kind = arrive then begin
          Overlay.Failure.set alive v true;
          rejoin v;
          Event_queue.add queue ~time:(time +. Lifetime.draw session rng) ((4 * v) + depart)
        end
        else if kind = maintain then begin
          match maintenance with
          | Some (_, tick) -> if Overlay.Failure.get alive v then tick v
          | None -> ()
        end
        else measure time;
        loop (events + 1)
      end
    end
  in
  loop 0

(* The two table representations under churn: xor runs real Kademlia
   k-buckets with LRU maintenance; every other geometry owns a mutable
   neighbour matrix (ring fingers and tree/hypercube bit-links are
   deterministic — their "re-binding" on rejoin is to the same
   identifier, so they heal exactly when the target returns; symphony
   shortcuts are re-drawable). *)
type tables =
  | Buckets of Overlay.Kbucket.t
  | Matrix of { neighbors : int array array; table : Overlay.Table.t }

let draw_shortcut rng ~size v = (v + Prng.Splitmix.harmonic_int rng ~n:(size - 1)) land (size - 1)

(* Alive-preferring redraw of a symphony shortcut (bounded rejection,
   as in Churn_profile.redraw_alive). *)
let redraw_shortcut rng ~alive ~size v =
  let candidate = ref (draw_shortcut rng ~size v) and attempts = ref 0 in
  while !attempts < 8 && not (Overlay.Failure.get alive !candidate) do
    candidate := draw_shortcut rng ~size v;
    incr attempts
  done;
  !candidate

(* Stale fraction of the k-bucket overlay, counted against bucket
   *capacity* ([Kbucket.stale_slots]): a slot emptied by eviction is
   exactly as useless to the router as a dead contact, so missing
   entries count as stale. This keeps the static prediction at
   q = stale honest for tables that shrink under churn. *)
let bucket_staleness table ~alive =
  let stale, total = Overlay.Kbucket.stale_slots table ~alive in
  if total = 0 then 0.0 else float_of_int stale /. float_of_int total

let matrix_staleness ~alive ~near_slots neighbors =
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
  let fraction cls =
    if total.(cls) = 0 then 0.0
    else float_of_int stale.(cls) /. float_of_int total.(cls)
  in
  let overall =
    let t = total.(0) + total.(1) in
    if t = 0 then 0.0 else float_of_int (stale.(0) + stale.(1)) /. float_of_int t
  in
  (overall, fraction 0, fraction 1)

let measure cfg ~profile rng ~alive ~tables ~time =
  let route src dst =
    match tables with
    | Buckets table ->
        Routing.Bucket_router.route ~mode:`Xor table ~alive ~src ~dst
    | Matrix { table; _ } -> Routing.Router.route table ~rng ~alive ~src ~dst
  in
  let trial = Trial.run ~rng ~alive ~pairs:cfg.pairs_per_measurement route in
  (* Fewer than two survivors: no pair exists, so no routability sample
     — never fabricate a zero. *)
  let routability =
    if trial.attempted = 0 then None else Some (Trial.routability [ trial ])
  in
  let stale, stale_near, stale_shortcut =
    match tables with
    | Buckets table ->
        let s = bucket_staleness table ~alive in
        (s, s, s)
    | Matrix { neighbors; _ } ->
        let near_slots =
          match (cfg.geometry, profile) with
          | Rcm.Geometry.Symphony { k_n; _ }, _ -> k_n
          | _, Some p -> p.Churn_profile.near_slots
          | _, None -> 0
        in
        matrix_staleness ~alive ~near_slots neighbors
  in
  (* The churn-to-static bridge: evaluate the closed-form r(N,q) at
     q = the instantaneous stale fraction just measured. Xor uses the
     k-bucket form; Symphony the heterogeneous Eq. 7 with per-class
     staleness; custom families bring their own; the rest use the
     paper's basic model. *)
  let static_prediction =
    match (cfg.geometry, profile) with
    | Rcm.Geometry.Xor, _ -> Rcm.Replication.routability_xor ~d:cfg.bits ~q:stale ~k:cfg.k
    | Rcm.Geometry.Symphony { k_n; k_s }, _ ->
        Rcm.Engine.routability
          (Rcm.Symphony.spec_heterogeneous ~q_near:stale_near ~k_n ~k_s)
          ~d:cfg.bits ~q:stale_shortcut
    | _, Some p -> p.Churn_profile.prediction ~bits:cfg.bits ~stale ~stale_near ~stale_shortcut
    | _, None -> Rcm.Model.routability cfg.geometry ~d:cfg.bits ~q:stale
  in
  {
    time;
    alive_fraction = trial.alive_fraction;
    stale_fraction = stale;
    stale_near;
    stale_shortcut;
    routability;
    static_prediction;
  }

let rejoin_matrix cfg ~profile rng ~alive ~neighbors v =
  match (cfg.geometry, profile) with
  | Rcm.Geometry.Symphony { k_n; _ }, _ ->
      let size = 1 lsl cfg.bits in
      let row = neighbors.(v) in
      for slot = k_n to Array.length row - 1 do
        row.(slot) <- redraw_shortcut rng ~alive ~size v
      done
  | _, Some profile ->
      let row = neighbors.(v) in
      for slot = profile.Churn_profile.near_slots to Array.length row - 1 do
        row.(slot) <- Churn_profile.redraw_alive profile rng ~alive ~v ~slot
      done
  | _, None ->
      (* Deterministic links re-bind to the same identifiers. *)
      ()

(* Maintenance tick for one live node. Xor: a ping-before-evict pass
   over every bucket (dead heads evicted, cache entries promoted), then
   one Kademlia-style bucket refresh on a rotating level — a fresh
   candidate is drawn and, when live, observed, which is how buckets
   emptied by eviction regain contacts once their cache has drained.
   Symphony: dead shortcuts are redrawn in place. *)
let maintain_node cfg ~profile rng ~alive ~tables ~refresh_level v =
  match tables with
  | Buckets table ->
      Overlay.Kbucket.maintain table v ~alive;
      let bits = cfg.bits in
      let level = (refresh_level.(v) mod bits) + 1 in
      refresh_level.(v) <- refresh_level.(v) + 1;
      let base = Idspace.Id.flip_bit ~bits v level in
      let suffix = Prng.Splitmix.int rng (1 lsl (bits - level)) in
      let candidate = Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix in
      if Overlay.Failure.get alive candidate then begin
        Overlay.Kbucket.observe table v candidate;
        Overlay.Kbucket.observe table candidate v
      end
  | Matrix { neighbors; _ } -> (
      match (cfg.geometry, profile) with
      | Rcm.Geometry.Symphony { k_n; _ }, _ ->
          let size = 1 lsl cfg.bits in
          let row = neighbors.(v) in
          for slot = k_n to Array.length row - 1 do
            if not (Overlay.Failure.get alive row.(slot)) then
              row.(slot) <- redraw_shortcut rng ~alive ~size v
          done
      | _, Some profile ->
          let row = neighbors.(v) in
          for slot = profile.Churn_profile.near_slots to Array.length row - 1 do
            if not (Overlay.Failure.get alive row.(slot)) then
              row.(slot) <- Churn_profile.redraw_alive profile rng ~alive ~v ~slot
          done
      | _, None -> ())

let run cfg =
  let rng = Prng.Splitmix.create ~seed:cfg.seed in
  let n = 1 lsl cfg.bits in
  (* A custom family's profile is resolved once here and passed down,
     not per event. *)
  let profile =
    match cfg.geometry with
    | Rcm.Geometry.Custom _ ->
        Some (Churn_profile.resolve_exn "Session_churn.run" cfg.geometry ~bits:cfg.bits)
    | _ -> None
  in
  let tables =
    match cfg.geometry with
    | Rcm.Geometry.Xor ->
        Buckets (Overlay.Kbucket.build ~rng ~cache_k:cfg.cache_k ~bits:cfg.bits ~k:cfg.k ())
    | _ ->
        (* A built table's [neighbors] are fresh copies, so churn owns
           these rows. *)
        let base = Overlay.Table.build ~rng ~bits:cfg.bits cfg.geometry in
        let neighbors = Array.init n (Overlay.Table.neighbors base) in
        let table = Overlay.Table.of_neighbors ~bits:cfg.bits cfg.geometry neighbors in
        Matrix { neighbors; table }
  in
  let alive = Overlay.Failure.none n in
  let refresh_level = Array.make n 0 in
  let maintained =
    match (cfg.geometry, profile) with
    | (Rcm.Geometry.Symphony _ | Rcm.Geometry.Xor), _ -> true
    | _, Some p -> p.Churn_profile.maintained
    | _, None -> false
  in
  let maintenance =
    if maintained then
      Some
        ( cfg.maintenance_interval,
          maintain_node cfg ~profile rng ~alive ~tables ~refresh_level )
    else None
  in
  let rejoin v =
    match tables with
    | Buckets table ->
        (* Alive-preferring bucket redraws, caches cleared, then the
           self-announce that seeds the new contacts' buckets with the
           returned node, as a Kademlia bootstrap lookup would. *)
        Overlay.Kbucket.rejoin table rng ~alive v
    | Matrix { neighbors; _ } -> rejoin_matrix cfg ~profile rng ~alive ~neighbors v
  in
  let out = ref [] in
  let events =
    drive ~rng ~alive ~session:cfg.session ~gap:cfg.gap ~maintenance ~warmup:cfg.warmup
      ~measurements:cfg.measurements ~spacing:cfg.measurement_spacing ~rejoin
      ~measure:(fun time -> out := measure cfg ~profile rng ~alive ~tables ~time :: !out)
  in
  let measurements = List.rev !out in
  let mean f =
    List.fold_left (fun acc m -> acc +. f m) 0.0 measurements
    /. float_of_int (List.length measurements)
  in
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
    events_processed = events;
  }
