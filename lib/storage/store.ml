(* The C read loop (read_stubs.c) reads the first seven fields by
   position, so their order is fixed. *)
type t = {
  overlay : Overlay.Sparse.t;
  quorum : Quorum.t;
  holders : int array array;  (* current holder set per key, rank order *)
  loads : int array;  (* reads served per node *)
  cdf : float array;  (* the Zipf key-popularity cdf *)
  walk : int;  (* Sparse_router.walk_kind, -1: reads stay in OCaml *)
  (* The last read's pending repair: key, coordinator, dead-slot count,
     then the dead slots. *)
  pending : int array;
  key_ids : int array;
  zipf : Prng.Zipf.t;
  initial : int array array;  (* immutable placement snapshot *)
  cands : int array array;  (* cached placement order per key, grown on demand *)
  next_rank : int array;  (* next unused placement rank per key *)
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
  let zipf = Prng.Zipf.create ~s:zipf_s ~n:keys in
  {
    overlay;
    quorum;
    holders = Array.map Array.copy initial;
    loads = Array.make n 0;
    cdf = Prng.Zipf.cdf zipf;
    walk = Routing.Sparse_router.walk_kind overlay;
    pending = Array.make (3 + quorum.Quorum.r) 0;
    key_ids;
    zipf;
    initial;
    cands = Array.map Array.copy initial;
    next_rank = Array.make keys quorum.Quorum.r;
  }

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

(* The repair [pending] describes. *)
let repair t ~alive =
  let key = t.pending.(0) and coordinator = t.pending.(1) in
  let routes = ref 0 and transfers = ref 0 in
  let holders = t.holders.(key) in
  let n = Overlay.Sparse.node_count t.overlay in
  for k = 3 to 2 + t.pending.(2) do
    let slot = t.pending.(k) in
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
               (Routing.Sparse_router.route t.overlay ~alive ~src:coordinator
                  ~dst:candidate)
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
    done
  done;
  (!routes, !transfers)

(* The storage/* counters of [reads] reads; an outcome's counter exists
   once a read had that outcome. *)
let meter ~reads ~quorum ~degraded ~failed ~probe_routes ~repair_routes ~repair_transfers =
  if reads > 0 && Obs.Metrics.enabled () then begin
    Obs.Metrics.incr_named ~by:reads "storage/reads";
    if quorum > 0 then Obs.Metrics.incr_named ~by:quorum "storage/quorum_reads";
    if degraded > 0 then Obs.Metrics.incr_named ~by:degraded "storage/degraded_reads";
    if failed > 0 then Obs.Metrics.incr_named ~by:failed "storage/failed_reads";
    Obs.Metrics.incr_named ~by:probe_routes "storage/probe_routes";
    Obs.Metrics.incr_named ~by:repair_routes "storage/repair_routes";
    Obs.Metrics.incr_named ~by:repair_transfers "storage/repair_transfers"
  end

let read t ~rng ~alive ~client =
  let key = Prng.Zipf.draw t.zipf rng in
  let holders = t.holders.(key) in
  let rq = t.quorum.Quorum.rq in
  let reached = ref 0 in
  let probes = ref 0 in
  let probe_routes = ref 0 in
  let coordinator = ref (-1) in
  let dead = ref 0 in
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
    else if not (Overlay.Failure.get alive holder) then begin
      t.pending.(3 + !dead) <- !slot;
      incr dead
    end;
    incr slot
  done;
  let repair_routes, repair_transfers =
    if !coordinator >= 0 && !dead > 0 then begin
      t.pending.(0) <- key;
      t.pending.(1) <- !coordinator;
      t.pending.(2) <- !dead;
      repair t ~alive
    end
    else (0, 0)
  in
  let outcome = Quorum.classify t.quorum ~reached:!reached in
  let quorum, degraded, failed =
    match outcome with
    | Quorum.Quorum -> (1, 0, 0)
    | Quorum.Degraded _ -> (0, 1, 0)
    | Quorum.Unavailable -> (0, 0, 1)
  in
  meter ~reads:1 ~quorum ~degraded ~failed ~probe_routes:!probe_routes ~repair_routes
    ~repair_transfers;
  {
    outcome;
    reached = !reached;
    probes = !probes;
    probe_routes = !probe_routes;
    repair_routes;
    repair_transfers;
  }

type tally = {
  mutable attempted : int;
  mutable quorum_reads : int;
  mutable degraded_reads : int;
  mutable failed_reads : int;
  mutable no_client : int;
  mutable probe_routes : int;
  mutable repair_routes : int;
  mutable repair_transfers : int;
}

let tally () =
  {
    attempted = 0;
    quorum_reads = 0;
    degraded_reads = 0;
    failed_reads = 0;
    no_client = 0;
    probe_routes = 0;
    repair_routes = 0;
    repair_transfers = 0;
  }

let availability tally =
  if tally.attempted = 0 then None
  else Some (float_of_int tally.quorum_reads /. float_of_int tally.attempted)

(* Reads in C (read_stubs.c) until [count] are done or one leaves a
   repair pending; see read_batch. The C side reads a [tally]'s fields
   by position up to [probe_routes], so their order is fixed. *)
external read_loop : t -> Prng.Splitmix.t -> Overlay.Rank.t -> tally -> int -> int
  = "rcm_store_read_batch"
[@@noalloc]

let count_read tally (stats : read_stats) =
  tally.attempted <- tally.attempted + 1;
  (match stats.outcome with
  | Quorum.Quorum -> tally.quorum_reads <- tally.quorum_reads + 1
  | Quorum.Degraded _ -> tally.degraded_reads <- tally.degraded_reads + 1
  | Quorum.Unavailable -> tally.failed_reads <- tally.failed_reads + 1);
  tally.probe_routes <- tally.probe_routes + stats.probe_routes;
  tally.repair_routes <- tally.repair_routes + stats.repair_routes;
  tally.repair_transfers <- tally.repair_transfers + stats.repair_transfers

let read_batch t ~rng ~rank tally count =
  let alive = Overlay.Rank.mask rank and alive_n = Overlay.Rank.count rank in
  if count < 0 then invalid_arg "Store.read_batch: negative read count";
  if Overlay.Failure.length alive <> Overlay.Sparse.node_count t.overlay then
    invalid_arg "Store.read_batch: alive mask length differs from the node count";
  if alive_n = 0 then tally.no_client <- tally.no_client + count
  else if
    t.walk < 0
    || (not (Routing.Route_batch.enabled ()))
    || Option.is_some (Obs.Loadmap.sink ())
  then
    for _ = 1 to count do
      let client = Overlay.Rank.select rank (Prng.Splitmix.int rng alive_n) in
      count_read tally (read t ~rng ~alive ~client)
    done
  else begin
    let before = { tally with attempted = tally.attempted } in
    let left = ref count in
    while !left > 0 do
      let done_ = read_loop t rng rank tally !left in
      left := !left - abs done_;
      if done_ < 0 then begin
        let routes, transfers = repair t ~alive in
        tally.repair_routes <- tally.repair_routes + routes;
        tally.repair_transfers <- tally.repair_transfers + transfers
      end
    done;
    meter
      ~reads:(tally.attempted - before.attempted)
      ~quorum:(tally.quorum_reads - before.quorum_reads)
      ~degraded:(tally.degraded_reads - before.degraded_reads)
      ~failed:(tally.failed_reads - before.failed_reads)
      ~probe_routes:(tally.probe_routes - before.probe_routes)
      ~repair_routes:(tally.repair_routes - before.repair_routes)
      ~repair_transfers:(tally.repair_transfers - before.repair_transfers)
  end
