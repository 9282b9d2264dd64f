(* Greedy routing over sparse overlays (node identity = index into the
   sorted id array, distances measured on identifiers). Same forwarding
   rules as the fully-populated routers; tree/xor tables may have
   [Sparse.missing] entries, which simply never match.

   [route] checks [src], [dst] and the mask length once; the walks then
   index the ids array, the contact block and the alive-bitset words
   directly and allocate only the final outcome. The library builds
   with -opaque in the dev profile, so an accessor of another module
   would stay one call per candidate.

   A route with no [on_hop] and no loadmap sink takes the same walk in
   C (sparse_walk.h) unless [Route_batch] is disabled (--no-batch): the
   OCaml walks below are its reference, and take every route that
   reports its hops. *)

let[@inline] alive_at (words : Overlay.Failure.Bitset.words) v =
  Bigarray.Array1.unsafe_get words (v lsr 5) lsr (v land 31) land 1 <> 0

let[@inline] contact (targets : Overlay.Flat.targets) k =
  Int32.to_int (Bigarray.Array1.unsafe_get targets k)

(* Greedy clockwise over ring-structured contacts (Chord fingers or
   Symphony links): hop to the alive contact closest to [dst]
   clockwise, as long as it is closer than the current node. *)
let route_ring on_hop overlay ~alive ~src ~dst =
  let mask = (1 lsl Overlay.Sparse.bits overlay) - 1 in
  let ids = Overlay.Sparse.ids overlay in
  let targets = Overlay.Sparse.targets overlay in
  let degree = Overlay.Sparse.degree overlay in
  let words = Overlay.Failure.Bitset.words alive in
  let id_dst = Array.unsafe_get ids dst in
  let cur = ref src and hops = ref 0 and stuck = ref (-1) in
  let remaining = ref ((id_dst - Array.unsafe_get ids src) land mask) in
  while !remaining > 0 && !stuck < 0 do
    let best = ref (-1) and best_remaining = ref !remaining in
    let base = !cur * degree in
    for k = base to base + degree - 1 do
      let c = contact targets k in
      if c >= 0 && alive_at words c then begin
        let after = (id_dst - Array.unsafe_get ids c) land mask in
        if after < !best_remaining then begin
          best := c;
          best_remaining := after
        end
      end
    done;
    if !best < 0 then stuck := !cur
    else begin
      on_hop !best;
      cur := !best;
      incr hops;
      remaining := !best_remaining
    end
  done;
  if !stuck >= 0 then Outcome.Dropped { hops = !hops; stuck_at = !stuck }
  else Outcome.Delivered { hops = !hops }

(* Prefix routing: the level-l contact (slot l-1) corrects bit l.
   [~xor:true] falls back to lower-order differing bits, the tree must
   use the leading one. *)
let route_prefix on_hop ~xor overlay ~alive ~src ~dst =
  let bits = Overlay.Sparse.bits overlay in
  let ids = Overlay.Sparse.ids overlay in
  let targets = Overlay.Sparse.targets overlay in
  let degree = Overlay.Sparse.degree overlay in
  let words = Overlay.Failure.Bitset.words alive in
  let id_dst = Array.unsafe_get ids dst in
  let cur = ref src and hops = ref 0 and stuck = ref (-1) in
  while !cur <> dst && !stuck < 0 do
    let diff = Array.unsafe_get ids !cur lxor id_dst in
    let slot0 = (!cur * degree) - 1 in
    let next = ref (-1) in
    let level = ref (bits - Idspace.Id.floor_log2 diff) in
    let last = if xor then bits else !level in
    while !next < 0 && !level <= last do
      if diff land (1 lsl (bits - !level)) <> 0 then begin
        let c = contact targets (slot0 + !level) in
        if c >= 0 && alive_at words c then next := c
      end;
      incr level
    done;
    if !next < 0 then stuck := !cur
    else begin
      on_hop !next;
      cur := !next;
      incr hops
    end
  done;
  if !stuck >= 0 then Outcome.Dropped { hops = !hops; stuck_at = !stuck }
  else Outcome.Delivered { hops = !hops }

(* The walk codes of sparse_walk.h. *)
let walk_kind overlay =
  match Overlay.Sparse.geometry overlay with
  | Rcm.Geometry.Symphony _ -> 0
  | Rcm.Geometry.Tree -> 1
  | Rcm.Geometry.Xor -> 2
  | Rcm.Geometry.Ring -> 3
  | Rcm.Geometry.Hypercube | Rcm.Geometry.Record _ -> -1

(* One C walk (sparse_route_stubs.c), its outcome packed as
   hops lsl 31 lor (stuck + 1), stuck = -1 when delivered. *)
external walk :
  Overlay.Sparse.t -> Overlay.Failure.Bitset.words -> int -> int -> int -> int
  = "rcm_sparse_route"
[@@noalloc]

let walk_outcome packed =
  let hops = packed lsr 31 and stuck = (packed land 0x7FFF_FFFF) - 1 in
  if stuck < 0 then Outcome.Delivered { hops } else Outcome.Dropped { hops; stuck_at = stuck }

let dispatch ?on_hop overlay ~alive ~src ~dst =
  let n = Overlay.Sparse.node_count overlay in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sparse_router.route: src or dst outside the overlay";
  if Overlay.Failure.length alive < n then
    invalid_arg "Sparse_router.route: alive mask shorter than the overlay";
  let kind = walk_kind overlay in
  if Option.is_none on_hop && kind >= 0 && Route_batch.enabled () then
    walk_outcome (walk overlay (Overlay.Failure.Bitset.words alive) kind src dst)
  else begin
    let hop = Option.value on_hop ~default:ignore in
    match Overlay.Sparse.geometry overlay with
    | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> route_ring hop overlay ~alive ~src ~dst
    | Rcm.Geometry.Tree -> route_prefix hop ~xor:false overlay ~alive ~src ~dst
    | Rcm.Geometry.Xor -> route_prefix hop ~xor:true overlay ~alive ~src ~dst
    | Rcm.Geometry.Hypercube ->
        invalid_arg "Sparse_router.route: no sparse hypercube overlay exists"
    | Rcm.Geometry.Record { h } -> Record_router.sparse_route ~on_hop:hop ~h overlay ~alive ~src ~dst
  end

(* Same per-node load accounting as Routing.Router: one traversal per
   accepted hop (the node hopped to), one termination where the walk
   ends — dst when delivered, the stuck node when dropped. Node
   indices here are sparse-overlay indices; the storage layer and the
   hotspot sweep size their loadmaps accordingly. *)
let route ?on_hop overlay ~alive ~src ~dst =
  match Obs.Loadmap.sink () with
  | None -> dispatch ?on_hop overlay ~alive ~src ~dst
  | Some lm ->
      let count v = Obs.Loadmap.record lm Obs.Loadmap.Route_traversal v in
      let on_hop =
        match on_hop with
        | None -> count
        | Some f ->
            fun v ->
              count v;
              f v
      in
      let outcome = dispatch ~on_hop overlay ~alive ~src ~dst in
      (match outcome with
      | Outcome.Delivered _ -> Obs.Loadmap.record lm Obs.Loadmap.Route_termination dst
      | Outcome.Dropped { stuck_at; _ } ->
          Obs.Loadmap.record lm Obs.Loadmap.Route_termination stuck_at);
      outcome
