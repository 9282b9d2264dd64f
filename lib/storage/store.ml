type t = {
  overlay : Overlay.Sparse.t;
  quorum : Quorum.t;
  key_ids : int array;
  zipf : Prng.Zipf.t;
  holders : int array array;  (* current holder set per key, rank order *)
  initial : int array array;  (* immutable placement snapshot *)
  cands : int array array;  (* cached placement order per key, grown on demand *)
  next_rank : int array;  (* next unused placement rank per key *)
  loads : int array;  (* reads served per node *)
}

let repair_attempt_cap = 4

let create ?(zipf_s = 0.8) ~keys ~quorum ~rng overlay =
  if keys < 1 then invalid_arg "Store.create: keys must be >= 1";
  let n = Overlay.Sparse.node_count overlay in
  if quorum.Quorum.r > n then
    invalid_arg "Store.create: replication degree exceeds node count";
  let space = 1 lsl Overlay.Sparse.bits overlay in
  let key_ids = Array.init keys (fun _ -> Prng.Splitmix.int rng space) in
  let initial =
    Array.map
      (fun key -> Placement.replica_set overlay ~key ~r:quorum.Quorum.r)
      key_ids
  in
  {
    overlay;
    quorum;
    key_ids;
    zipf = Prng.Zipf.create ~s:zipf_s ~n:keys;
    holders = Array.map Array.copy initial;
    initial;
    cands = Array.map Array.copy initial;
    next_rank = Array.make keys quorum.Quorum.r;
    loads = Array.make n 0;
  }

let overlay t = t.overlay
let quorum t = t.quorum
let key_count t = Array.length t.key_ids
let key_id t k = t.key_ids.(k)
let holders t k = Array.copy t.holders.(k)
let initial_holders t k = Array.copy t.initial.(k)
let loads t = Array.copy t.loads

(* One counting pass instead of a sort: read counts are small
   non-negative ints, so a histogram up to the max gives the mean and
   the entry at sorted rank ceil(0.99 n) - 1 directly. *)
let load_stats loads =
  let len = Array.length loads in
  if len = 0 then (0, Float.nan, 0)
  else begin
    let top = ref 0 and total = ref 0 in
    Array.iter
      (fun l ->
        if l > !top then top := l;
        total := !total + l)
      loads;
    let counts = Array.make (!top + 1) 0 in
    Array.iter (fun l -> counts.(l) <- counts.(l) + 1) loads;
    let rank =
      min (len - 1) (max 0 (int_of_float (Float.ceil (0.99 *. float_of_int len)) - 1))
    in
    let p99 = ref 0 and below = ref counts.(0) in
    while !below <= rank do
      incr p99;
      below := !below + counts.(!p99)
    done;
    (!top, float_of_int !total /. float_of_int len, !p99)
  end

let surviving_keys t ~alive ~quorum =
  let survived = ref 0 in
  Array.iter
    (fun holders ->
      let up = ref 0 in
      Array.iter (fun v -> if Overlay.Failure.get alive v then incr up) holders;
      if !up >= quorum then incr survived)
    t.initial;
  !survived

type read_stats = {
  outcome : Quorum.read_outcome;
  reached : int;
  probes : int;
  probe_routes : int;
  repair_routes : int;
  repair_transfers : int;
}

let delivered = function Routing.Outcome.Delivered _ -> true | _ -> false

(* Promote the next placement candidates over the dead holders the read
   observed. The coordinator (first responder) routes the new copy to
   each candidate; a candidate that is dead or unreachable costs the
   route and the next rank is tried, up to [repair_attempt_cap] per
   slot. *)
let candidate_at t ~key ~rank =
  let cached = t.cands.(key) in
  if rank < Array.length cached then cached.(rank)
  else begin
    let n = Overlay.Sparse.node_count t.overlay in
    let count = min n (max (rank + 1) (2 * Array.length cached)) in
    let grown = Placement.candidates t.overlay ~key:t.key_ids.(key) ~count in
    t.cands.(key) <- grown;
    grown.(rank)
  end

let repair t ~alive ~key ~coordinator ~dead_slots =
  let routes = ref 0 and transfers = ref 0 in
  let holders = t.holders.(key) in
  let n = Overlay.Sparse.node_count t.overlay in
  List.iter
    (fun slot ->
      let attempts = ref 0 in
      let installed = ref false in
      while (not !installed) && !attempts < repair_attempt_cap do
        let rank = t.next_rank.(key) in
        if rank >= n then attempts := repair_attempt_cap
        else begin
          t.next_rank.(key) <- rank + 1;
          incr attempts;
          let candidate = candidate_at t ~key ~rank in
          incr routes;
          if
            Overlay.Failure.get alive candidate
            && delivered
                 (Routing.Sparse_router.route t.overlay ~alive
                    ~src:coordinator ~dst:candidate)
          then begin
            holders.(slot) <- candidate;
            incr transfers;
            (* The candidate absorbed a re-replicated copy: the Repair
               plane of the shared loadmap (the repair *routes* land in
               the traversal counters via Sparse_router). *)
            Obs.Loadmap.note Obs.Loadmap.Repair candidate;
            installed := true
          end
        end
      done)
    dead_slots;
  (!routes, !transfers)

let read t ~rng ~alive ~client =
  let key = Prng.Zipf.draw t.zipf rng in
  let holders = t.holders.(key) in
  let rq = t.quorum.Quorum.rq in
  let reached = ref 0 in
  let probes = ref 0 in
  let probe_routes = ref 0 in
  let coordinator = ref (-1) in
  let dead_slots = ref [] in
  let slot = ref 0 in
  let r = Array.length holders in
  while !reached < rq && !slot < r do
    let holder = holders.(!slot) in
    incr probes;
    let ok =
      if holder = client then true
      else begin
        incr probe_routes;
        Overlay.Failure.get alive holder
        && delivered
             (Routing.Sparse_router.route t.overlay ~alive ~src:client
                ~dst:holder)
      end
    in
    if ok then begin
      incr reached;
      t.loads.(holder) <- t.loads.(holder) + 1;
      (* Mirror of the per-instance [loads] counter above into the
         shared loadmap, bump for bump, so a loadmap-carrying run
         reproduces [Store.loads] exactly (pinned by
         test/test_storage.ml). *)
      Obs.Loadmap.note Obs.Loadmap.Storage_read holder;
      if !coordinator < 0 then coordinator := holder
    end
    else if not (Overlay.Failure.get alive holder) then
      dead_slots := !slot :: !dead_slots;
    incr slot
  done;
  let repair_routes, repair_transfers =
    if !coordinator >= 0 && !dead_slots <> [] then
      repair t ~alive ~key ~coordinator:!coordinator
        ~dead_slots:(List.rev !dead_slots)
    else (0, 0)
  in
  let outcome = Quorum.classify t.quorum ~reached:!reached in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr_named "storage/reads";
    (match outcome with
    | Quorum.Quorum -> Obs.Metrics.incr_named "storage/quorum_reads"
    | Quorum.Degraded _ -> Obs.Metrics.incr_named "storage/degraded_reads"
    | Quorum.Unavailable -> Obs.Metrics.incr_named "storage/failed_reads");
    Obs.Metrics.incr_named ~by:!probe_routes "storage/probe_routes";
    Obs.Metrics.incr_named ~by:repair_routes "storage/repair_routes";
    Obs.Metrics.incr_named ~by:repair_transfers "storage/repair_transfers"
  end;
  {
    outcome;
    reached = !reached;
    probes = !probes;
    probe_routes = !probe_routes;
    repair_routes;
    repair_transfers;
  }
