(* Batched branch-free routing over the flat CSR backend.

   The scalar [Router.route] pays, on every hop, for geometry dispatch,
   a closure-based neighbour iteration and a [repr] match inside every
   [Overlay.Table] accessor. At 2^20 nodes that caps the whole engine
   at ~100k routes/s. The kernels below route an entire pair set
   through one monomorphic int loop per geometry: neighbour lookups
   are direct loads from the CSR [offsets]/[targets] Bigarrays,
   liveness is one load + shift + mask against the packed
   {!Overlay.Bitset} words, and per-pair results land in reusable
   off-heap scratch buffers — zero allocation per hop, and one metrics
   flush per batch instead of one per route.

   Bit-identity contract (pinned by [test/test_batch.ml] and the CLI
   byte-identity checks): for every geometry the kernel visits
   candidates in exactly the scalar router's order and consumes PRNG
   draws in exactly the scalar order, so outcomes, hop counts, stuck
   nodes and the post-batch rng state are equal to the scalar path's.
   [sample_and_route] additionally inlines [Stats.Sampler.ordered_pair]
   draw-for-draw, because the hypercube router consumes randomness
   while routing: pair sampling and routing draws must interleave
   exactly as in the scalar trial loop. *)

type offsets = Overlay.Flat.offsets
type targets = Overlay.Flat.targets
type words = Overlay.Bitset.words

(* --- batch toggle --------------------------------------------------------- *)

let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* --- result encoding ------------------------------------------------------ *)

(* One immediate int per routed pair: low 32 bits carry the hop count,
   the bits above carry [stuck_at + 1] (0 = delivered). Hop counts and
   node ids are < 2^30 ({!Idspace.Space.max_bits}), so the packed value
   fits a 63-bit int with room to spare. *)

let[@inline] delivered_result hops = hops

let[@inline] dropped_result cur hops = ((cur + 1) lsl 32) lor hops

(* --- branch-light primitives ---------------------------------------------- *)

(* floor(log2 x) for 0 < x < 2^30 as a shift cascade (no loop-carried
   data dependence, no table). *)
let[@inline] floor_log2 x =
  let r = if x >= 0x10000 then 16 else 0 in
  let x = x lsr r in
  let s = if x >= 0x100 then 8 else 0 in
  let x = x lsr s in
  let r = r + s in
  let s = if x >= 0x10 then 4 else 0 in
  let x = x lsr s in
  let r = r + s in
  let s = if x >= 4 then 2 else 0 in
  let x = x lsr s in
  let r = r + s in
  r + (x lsr 1)

let[@inline] is_alive (words : words) v =
  Bigarray.Array1.unsafe_get words (v lsr 5) lsr (v land 31) land 1 <> 0

let[@inline] neighbor_at (targets : targets) k =
  Int32.to_int (Bigarray.Array1.unsafe_get targets k)

let[@inline] row_start (offsets : offsets) v = Bigarray.Array1.unsafe_get offsets v

(* --- hypercube (the one geometry routed in OCaml) ------------------------- *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Loadmap counter bump, compiled away to one length test when the
   zero-length "telemetry off" buffer is installed — the OCaml twin of
   the NULL-pointer guard in the C drivers. Indices are node ids of the
   routed table, in range by construction. *)
let[@inline] bump (b : buf) v =
  if Bigarray.Array1.dim b > 0 then
    Bigarray.Array1.unsafe_set b v (Bigarray.Array1.unsafe_get b v + 1)

(* Hypercube (CAN, scalar [Hypercube_router]): uniform reservoir over
   the alive neighbours correcting a differing bit, scanning set bits
   of [diff] lowest-first and drawing [Splitmix.int rng seen] per alive
   candidate — draw-for-draw the scalar sequence. Traversals are
   counted at the accepted hop (the reservoir winner the walk moves
   to), terminations where the walk ends, matching the scalar Router
   hook and the C drivers. *)
let rec hypercube_pair (offsets : offsets) (targets : targets) (words : words) ~bits ~rng
    ~trav ~term ~dst cur hops =
  if cur = dst then begin
    bump term dst;
    delivered_result hops
  end
  else
    hypercube_scan offsets targets words ~bits ~rng ~trav ~term ~dst cur hops
      (cur lxor dst) (-1) 0

and hypercube_scan (offsets : offsets) (targets : targets) (words : words) ~bits ~rng
    ~trav ~term ~dst cur hops bit chosen seen =
  if bit = 0 then
    if chosen < 0 then begin
      bump term cur;
      dropped_result cur hops
    end
    else begin
      bump trav chosen;
      hypercube_pair offsets targets words ~bits ~rng ~trav ~term ~dst chosen (hops + 1)
    end
  else begin
    let low = bit land -bit in
    let cand = neighbor_at targets (row_start offsets cur + bits - 1 - floor_log2 low) in
    let rest = bit land (bit - 1) in
    if is_alive words cand then begin
      let seen = seen + 1 in
      let chosen = if Prng.Splitmix.int rng seen = 0 then cand else chosen in
      hypercube_scan offsets targets words ~bits ~rng ~trav ~term ~dst cur hops rest chosen
        seen
    end
    else
      hypercube_scan offsets targets words ~bits ~rng ~trav ~term ~dst cur hops rest chosen
        seen
  end

(* --- per-domain scratch --------------------------------------------------- *)

type scratch = {
  mutable cap : int;
  mutable hops_buf : buf;
  mutable stuck_buf : buf;  (* stuck node id, -1 when delivered *)
  mutable count : int;  (* pairs routed by the last batch *)
  mutable delivered : int;
  mutable dropped : int;
  (* Hop histogram of the last batch, accumulated here so the shared
     metrics registry sees one locked add per batch, not one per
     route. [hist_used] caps the zeroing cost on reuse. *)
  mutable hist : int array;
  mutable hist_used : int;
}

let empty_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let create_scratch () =
  {
    cap = 0;
    hops_buf = empty_buf;
    stuck_buf = empty_buf;
    count = 0;
    delivered = 0;
    dropped = 0;
    hist = Array.make 64 0;
    hist_used = 0;
  }

let scratch_key = Domain.DLS.new_key create_scratch

let domain_scratch () = Domain.DLS.get scratch_key

let prepare s n =
  if n > s.cap then begin
    let cap = max n (max 1024 (2 * s.cap)) in
    s.hops_buf <- Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap;
    s.stuck_buf <- Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap;
    s.cap <- cap
  end;
  Array.fill s.hist 0 s.hist_used 0;
  s.hist_used <- 0;
  s.count <- n;
  s.delivered <- 0;
  s.dropped <- 0

let[@inline] store s k r =
  let hops = r land 0xFFFF_FFFF in
  let stuck = (r lsr 32) - 1 in
  Bigarray.Array1.unsafe_set s.hops_buf k hops;
  Bigarray.Array1.unsafe_set s.stuck_buf k stuck;
  if stuck < 0 then begin
    s.delivered <- s.delivered + 1;
    if hops >= Array.length s.hist then begin
      let grown = Array.make (2 * max (Array.length s.hist) (hops + 1)) 0 in
      Array.blit s.hist 0 grown 0 s.hist_used;
      s.hist <- grown
    end;
    s.hist.(hops) <- s.hist.(hops) + 1;
    if hops >= s.hist_used then s.hist_used <- hops + 1
  end
  else s.dropped <- s.dropped + 1

(* --- scratch accessors ---------------------------------------------------- *)

let batch_size s = s.count

let delivered_count s = s.delivered

let dropped_count s = s.dropped

let check_index s k context =
  if k < 0 || k >= s.count then
    invalid_arg (Printf.sprintf "Route_batch.%s: index %d outside [0, %d)" context k s.count)

let hops s k =
  check_index s k "hops";
  Bigarray.Array1.unsafe_get s.hops_buf k

let is_delivered s k =
  check_index s k "is_delivered";
  Bigarray.Array1.unsafe_get s.stuck_buf k < 0

let outcome s k =
  check_index s k "outcome";
  let hops = Bigarray.Array1.unsafe_get s.hops_buf k in
  let stuck = Bigarray.Array1.unsafe_get s.stuck_buf k in
  if stuck < 0 then Outcome.Delivered { hops } else Outcome.Dropped { hops; stuck_at = stuck }

let raw_hops s = Bigarray.Array1.sub s.hops_buf 0 s.count

let raw_stuck s = Bigarray.Array1.sub s.stuck_buf 0 s.count

(* Delivered hop counts in routing order, as the [float list] the
   estimate layer aggregates (built back-to-front so the list comes
   out in pair order, exactly like the scalar trial loop's
   [List.rev] of its accumulator). *)
let delivered_hops_rev_order s =
  let acc = ref [] in
  for k = s.count - 1 downto 0 do
    if Bigarray.Array1.unsafe_get s.stuck_buf k >= 0 then ()
    else acc := float_of_int (Bigarray.Array1.unsafe_get s.hops_buf k) :: !acc
  done;
  !acc

(* --- metrics -------------------------------------------------------------- *)

(* Mirrors the scalar [Router.record] totals with one locked update per
   distinct hop value and one atomic add per outcome class. Exactness:
   hop values and counts are small integers, so the histogram sum
   [v *. count] equals [count] repeated additions of [v] in float —
   the --metrics snapshot is equal (not just close) to the scalar
   path's, which test_batch pins. Empty batches register nothing, like
   a loop that never routed. *)
let flush_metrics geometry s =
  if s.count > 0 && Obs.Metrics.enabled () then begin
    let name = Rcm.Geometry.slug geometry in
    List.iter
      (fun label -> ignore (Obs.Metrics.counter (Printf.sprintf "routing/%s/%s" name label)))
      Outcome.metric_labels;
    if s.delivered > 0 then
      Obs.Metrics.incr_named ~by:s.delivered (Printf.sprintf "routing/%s/delivered" name);
    if s.dropped > 0 then
      Obs.Metrics.incr_named ~by:s.dropped (Printf.sprintf "routing/%s/dead_end" name);
    if s.delivered > 0 then begin
      let h = Obs.Metrics.histogram (Printf.sprintf "routing/%s/hops" name) in
      for hop = 0 to s.hist_used - 1 do
        let c = s.hist.(hop) in
        if c > 0 then Obs.Metrics.observe_n h (float_of_int hop) ~times:c
      done
    end
  end

(* --- batched lane drivers (C) --------------------------------------------- *)

(* The rng-free geometries (tree, xor, ring/symphony) route whole pair
   blocks through per-geometry lane drivers in route_batch_stubs.c:
   many independent routes in flight, one software-prefetched hop per
   lane per round, results written straight into the scratch buffers
   ([stuck = -1] when delivered, else the stuck node id). See the stub
   file's header for why the hot loop is C (memory-level parallelism
   needs prefetches that retire and hops of a few instructions) and for
   the bit-identity contract. Lane interleaving is invisible in the
   results: each pair still visits candidates in the scalar order — or
   an order-insensitive equivalent — these geometries consume no
   randomness while routing, and results are indexed by pair, not by
   completion order. The hypercube router draws from the PRNG on every
   hop, so it keeps the sequential OCaml loop above.

   Arguments: targets, alive words, offsets, srcs, dsts, pair count,
   hops out, stuck out, bits (distance mask for ring), uniform degree
   (-1 when ragged), and the loadmap traversal / termination counter
   slices (zero-length = telemetry off). *)

external route_block_tree :
  targets ->
  words ->
  offsets ->
  int array ->
  int array ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_tree_bc" "rcm_route_tree"
[@@noalloc]

external route_block_xor :
  targets ->
  words ->
  offsets ->
  int array ->
  int array ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_xor_bc" "rcm_route_xor"
[@@noalloc]

external route_block_ring :
  targets ->
  words ->
  offsets ->
  int array ->
  int array ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_ring_bc" "rcm_route_ring"
[@@noalloc]

(* Fold a C-routed block into the batch totals — the counterpart of
   [store], which does this per pair on the OCaml hypercube path. *)
let tally s n =
  for k = 0 to n - 1 do
    if Bigarray.Array1.unsafe_get s.stuck_buf k < 0 then begin
      let hops = Bigarray.Array1.unsafe_get s.hops_buf k in
      s.delivered <- s.delivered + 1;
      if hops >= Array.length s.hist then begin
        let grown = Array.make (2 * max (Array.length s.hist) (hops + 1)) 0 in
        Array.blit s.hist 0 grown 0 s.hist_used;
        s.hist <- grown
      end;
      s.hist.(hops) <- s.hist.(hops) + 1;
      if hops >= s.hist_used then s.hist_used <- hops + 1
    end
    else s.dropped <- s.dropped + 1
  done

(* --- custom-family lanes --------------------------------------------------- *)

(* How a custom family routes under the batch engine. [Scalar] (the
   default when a family registers no lane) drives the family's
   registered scalar router pair by pair, interleaving pair-sampling
   draws with any forwarding draws — bit-identical to the scalar trial
   loop for every router, including randomized ones, at scalar speed.
   [Block] is the opt-in fast path: a driver with the same signature
   as the built-in C lanes, valid only for rng-free routers (the block
   runs after all pairs are sampled). The [int] argument in [bits]
   position is lane-defined, exactly as the ring lane passes a
   distance mask there — a plugin driver can pack extra static
   parameters into it inside its closure. *)
type block_router =
  targets ->
  words ->
  offsets ->
  int array ->
  int array ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit

type lane = Scalar | Block of block_router

let custom_lanes : (string, (string * int) list -> lane) Hashtbl.t = Hashtbl.create 8

let register_custom_lane ~family resolve =
  if Hashtbl.mem custom_lanes family then
    invalid_arg
      (Printf.sprintf "Route_batch.register_custom_lane: %S already registered" family);
  Hashtbl.replace custom_lanes family resolve

let custom_lane ~family params =
  match Hashtbl.find_opt custom_lanes family with
  | Some resolve -> resolve params
  | None -> Scalar

let custom_router_exn ~family context =
  match Router.find_custom family with
  | Some router -> router
  | None ->
      invalid_arg
        (Printf.sprintf "Route_batch.%s: family %S has no registered router" context family)

(* One pair through a family's scalar router, with the batch path's
   loadmap accounting (bumps on the calling domain's slices, exactly
   like the C drivers) and the packed result encoding. Metrics are NOT
   recorded here — the caller flushes once per batch. *)
let scalar_custom_pair (router : Router.custom_router) table ~rng ~alive ~trav ~term ~src
    ~dst =
  match router ~on_hop:(fun v -> bump trav v) table ~rng ~alive ~src ~dst with
  | Outcome.Delivered { hops } ->
      bump term dst;
      delivered_result hops
  | Outcome.Dropped { hops; stuck_at } ->
      bump term stuck_at;
      dropped_result stuck_at hops

(* --- drivers -------------------------------------------------------------- *)

let flat_of table context =
  match Overlay.Table.csr table with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Route_batch.%s: table backend is not Flat (flatten it first)"
           context)

let mask_words ~table ~alive context =
  if Overlay.Failure.length alive <> Overlay.Table.node_count table then
    invalid_arg (Printf.sprintf "Route_batch.%s: alive mask size mismatch" context);
  Overlay.Failure.Bitset.words alive

(* The calling domain's loadmap slices, or the zero-length "off"
   buffers when no sink is installed — what the C drivers decode to
   NULL and [bump] to a length test. Looked up once per batch, not per
   hop. *)
let loadmap_slices ~table context =
  match Obs.Loadmap.sink () with
  | None -> (empty_buf, empty_buf)
  | Some lm ->
      if Obs.Loadmap.nodes lm <> Overlay.Table.node_count table then
        invalid_arg
          (Printf.sprintf
             "Route_batch.%s: loadmap sink covers %d nodes but the table has %d" context
             (Obs.Loadmap.nodes lm)
             (Overlay.Table.node_count table))
      else
        ( Obs.Loadmap.slice lm Obs.Loadmap.Route_traversal,
          Obs.Loadmap.slice lm Obs.Loadmap.Route_termination )

let route_many ?scratch table ~rng ~alive pairs =
  let flat = flat_of table "route_many" in
  let words = mask_words ~table ~alive "route_many" in
  let space = Overlay.Table.space table in
  Array.iter
    (fun (src, dst) ->
      Idspace.Space.check space src;
      Idspace.Space.check space dst)
    pairs;
  let offsets = Overlay.Flat.offsets flat in
  let targets = Overlay.Flat.targets flat in
  let bits = Overlay.Table.bits table in
  let n = Array.length pairs in
  let trav, term = loadmap_slices ~table "route_many" in
  let s = match scratch with Some s -> s | None -> domain_scratch () in
  prepare s n;
  (match Overlay.Table.geometry table with
  | Rcm.Geometry.Hypercube ->
      for k = 0 to n - 1 do
        let src, dst = Array.unsafe_get pairs k in
        store s k (hypercube_pair offsets targets words ~bits ~rng ~trav ~term ~dst src 0)
      done
  | Rcm.Geometry.Custom { family; params } -> (
      match custom_lane ~family params with
      | Scalar ->
          let router = custom_router_exn ~family "route_many" in
          for k = 0 to n - 1 do
            let src, dst = Array.unsafe_get pairs k in
            store s k (scalar_custom_pair router table ~rng ~alive ~trav ~term ~src ~dst)
          done
      | Block block ->
          let srcs = Array.map fst pairs in
          let dsts = Array.map snd pairs in
          block targets words offsets srcs dsts n s.hops_buf s.stuck_buf bits
            (Overlay.Flat.uniform_degree flat) trav term;
          tally s n)
  | geometry ->
      let srcs = Array.make n 0 in
      let dsts = Array.make n 0 in
      Array.iteri
        (fun k (src, dst) ->
          Array.unsafe_set srcs k src;
          Array.unsafe_set dsts k dst)
        pairs;
      let deg = Overlay.Flat.uniform_degree flat in
      (match geometry with
      | Rcm.Geometry.Tree ->
          route_block_tree targets words offsets srcs dsts n s.hops_buf s.stuck_buf bits
            deg trav term
      | Rcm.Geometry.Xor ->
          route_block_xor targets words offsets srcs dsts n s.hops_buf s.stuck_buf bits
            deg trav term
      | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ ->
          route_block_ring targets words offsets srcs dsts n s.hops_buf s.stuck_buf
            ((1 lsl bits) - 1) deg trav term
      | Rcm.Geometry.Hypercube | Rcm.Geometry.Custom _ -> assert false);
      tally s n);
  flush_metrics (Overlay.Table.geometry table) s;
  s

let sample_and_route ?scratch table ~rng ~alive ~pool ~pairs =
  let flat = flat_of table "sample_and_route" in
  let words = mask_words ~table ~alive "sample_and_route" in
  let npool = Array.length pool in
  if npool < 2 then invalid_arg "Route_batch.sample_and_route: pool smaller than 2";
  if pairs < 0 then invalid_arg "Route_batch.sample_and_route: negative pair count";
  let offsets = Overlay.Flat.offsets flat in
  let targets = Overlay.Flat.targets flat in
  let bits = Overlay.Table.bits table in
  let trav, term = loadmap_slices ~table "sample_and_route" in
  let s = match scratch with Some s -> s | None -> domain_scratch () in
  prepare s pairs;
  (* Pair sampling inlined from [Stats.Sampler.ordered_pair]: first
     draw is the source index, then rejection-draw a distinct
     destination index. Keeping it inside the batch loop preserves the
     scalar interleaving of sampling draws with the hypercube router's
     forwarding draws. *)
  let rec draw_distinct i =
    let j = Prng.Splitmix.int rng npool in
    if j = i then draw_distinct i else j
  in
  (* Each drawn id is checked before any kernel indexes a row, the
     mask or a loadmap slice with it — a check per draw, not a pass
     over a pool that can hold every node. The table's node count is
     2^bits, and an id is below it iff no bit at or above [bits] is
     set (a negative id has them all). *)
  let member i =
    let v = Array.unsafe_get pool i in
    if v lsr bits <> 0 then
      invalid_arg
        (Printf.sprintf "Route_batch.sample_and_route: pool id %d outside [0, %d)" v
           (1 lsl bits));
    v
  in
  (match Overlay.Table.geometry table with
  | Rcm.Geometry.Hypercube ->
      (* The hypercube router draws while routing, so sampling and
         forwarding draws must interleave pair by pair — no lanes. *)
      for k = 0 to pairs - 1 do
        let i = Prng.Splitmix.int rng npool in
        let src = member i in
        let dst = member (draw_distinct i) in
        store s k (hypercube_pair offsets targets words ~bits ~rng ~trav ~term ~dst src 0)
      done
  | Rcm.Geometry.Custom { family; params } -> (
      match custom_lane ~family params with
      | Scalar ->
          (* The default lane interleaves sampling and routing pair by
             pair — the scalar trial loop's draw order for any router,
             randomized ones included. *)
          let router = custom_router_exn ~family "sample_and_route" in
          for k = 0 to pairs - 1 do
            let i = Prng.Splitmix.int rng npool in
            let src = member i in
            let dst = member (draw_distinct i) in
            store s k (scalar_custom_pair router table ~rng ~alive ~trav ~term ~src ~dst)
          done
      | Block block ->
          (* Block lanes declare themselves rng-free, so sampling every
             pair first reproduces the scalar draw sequence. *)
          let srcs = Array.make pairs 0 in
          let dsts = Array.make pairs 0 in
          for k = 0 to pairs - 1 do
            let i = Prng.Splitmix.int rng npool in
            Array.unsafe_set srcs k (member i);
            Array.unsafe_set dsts k (member (draw_distinct i))
          done;
          block targets words offsets srcs dsts pairs s.hops_buf s.stuck_buf bits
            (Overlay.Flat.uniform_degree flat) trav term;
          tally s pairs)
  | geometry ->
      (* These geometries consume no randomness while routing, so the
         scalar draw sequence — sample pair k, route pair k — is
         exactly reproduced by sampling every pair first and routing
         the block through the lane driver afterwards. *)
      let srcs = Array.make pairs 0 in
      let dsts = Array.make pairs 0 in
      for k = 0 to pairs - 1 do
        let i = Prng.Splitmix.int rng npool in
        Array.unsafe_set srcs k (member i);
        Array.unsafe_set dsts k (member (draw_distinct i))
      done;
      let deg = Overlay.Flat.uniform_degree flat in
      (match geometry with
      | Rcm.Geometry.Tree ->
          route_block_tree targets words offsets srcs dsts pairs s.hops_buf s.stuck_buf bits
            deg trav term
      | Rcm.Geometry.Xor ->
          route_block_xor targets words offsets srcs dsts pairs s.hops_buf s.stuck_buf bits
            deg trav term
      | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ ->
          route_block_ring targets words offsets srcs dsts pairs s.hops_buf s.stuck_buf
            ((1 lsl bits) - 1) deg trav term
      | Rcm.Geometry.Hypercube | Rcm.Geometry.Custom _ -> assert false);
      tally s pairs);
  flush_metrics (Overlay.Table.geometry table) s;
  s
