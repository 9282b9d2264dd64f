(* Batched branch-free routing over flat tables.

   The scalar [Router.route] pays, on every hop, for geometry dispatch,
   a closure-based neighbour iteration and a [repr] match inside every
   [Overlay.Table] accessor. At 2^20 nodes that caps the whole engine
   at ~100k routes/s. Every built-in geometry instead routes a whole
   pair set through one C loop (route_batch_stubs.c): a neighbour is
   computed from the table's rule or loaded from the CSR
   [offsets]/[targets] Bigarrays of a block, liveness is one load +
   shift + mask against the packed
   {!Overlay.Bitset} words, and per-pair results land in reusable
   off-heap scratch buffers — zero allocation per hop, and one metrics
   flush per batch instead of one per route. This module checks the
   inputs, dispatches on the geometry, owns the scratch and tallies.

   Bit-identity contract (pinned by [test/test_batch.ml] and the CLI
   byte-identity checks): for every geometry the kernel visits
   candidates in exactly the scalar router's order and consumes PRNG
   draws in exactly the scalar order, so outcomes, hop counts, stuck
   nodes and the post-batch rng state are equal to the scalar path's.
   [sample_and_route] draws its pairs draw-for-draw as the scalar
   trial loop does: [Stats.Sampler.ordered_indexes], mapped to ids
   through the mask's rank index (or read from a given pool), in the
   C [draw_pair]. The hypercube router consumes randomness while
   routing, so its C kernel draws the pairs itself, interleaved with
   its routing draws exactly as in the scalar trial loop, and writes
   the generator's final state back. *)

type offsets = Overlay.Flat.offsets
type targets = Overlay.Flat.targets
type words = Overlay.Bitset.words
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* --- batch toggle --------------------------------------------------------- *)

let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* --- per-domain scratch --------------------------------------------------- *)

type scratch = {
  mutable cap : int;
  mutable hops_buf : buf;
  mutable stuck_buf : buf;  (* stuck node id, -1 when delivered *)
  (* The pairs of the last drawn batch; grown on demand and longer
     than the batch once a larger one has run. *)
  mutable srcs : int array;
  mutable dsts : int array;
  mutable count : int;  (* pairs routed by the last batch *)
  mutable delivered : int;
  mutable dropped : int;
  (* Hop histogram of the last batch's deliveries: what a trial keeps
     ([hop_counts]), and what the shared metrics registry gets in one
     locked add per batch, not one per route. [hist_used] is one past
     the largest delivered hop, and caps the zeroing cost on reuse. *)
  mutable hist : int array;
  mutable hist_used : int;
}

let empty_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let create_scratch () =
  {
    cap = 0;
    hops_buf = empty_buf;
    stuck_buf = empty_buf;
    srcs = [||];
    dsts = [||];
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

(* --- scratch accessors ---------------------------------------------------- *)

let delivered_count s = s.delivered

let check_index s k context =
  if k < 0 || k >= s.count then
    invalid_arg (Printf.sprintf "Route_batch.%s: index %d outside [0, %d)" context k s.count)

let outcome s k =
  check_index s k "outcome";
  let hops = Bigarray.Array1.unsafe_get s.hops_buf k in
  let stuck = Bigarray.Array1.unsafe_get s.stuck_buf k in
  if stuck < 0 then Outcome.Delivered { hops } else Outcome.Dropped { hops; stuck_at = stuck }

let hop_counts s = Array.sub s.hist 0 s.hist_used

(* Delivered hop counts in routing order, as floats (built
   back-to-front so the list comes out in pair order). *)
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

(* --- C kernels -------------------------------------------------------------- *)

(* Every built-in geometry routes through a kernel in
   route_batch_stubs.c, which writes results straight into the scratch
   buffers ([stuck = -1] when delivered, else the stuck node id). See
   the stub file's header for why the hot loops are C (memory-level
   parallelism needs prefetches that retire and hops of a few
   instructions) and for the bit-identity contract.

   The rng-free geometries (tree, xor, ring, symphony) route whole pair
   blocks through lanes: many independent routes in flight, one hop
   per lane per round. On x86-64-v4 CPUs the tree, xor and ring rule
   tables and Symphony's shortcut column run AVX-512 lanes, 64 walks
   at a time, picked per call by the variant argument; every other
   table and CPU runs the portable lanes. Lane interleaving is
   invisible in the results:
   each pair still visits candidates in the scalar order — or an
   order-insensitive equivalent — these geometries consume no
   randomness while routing, and results are indexed by pair, not by
   completion order.

   Arguments: the kernel variant (see [variants]), the table's rule
   code and seed (see [entries]), targets, alive words, offsets, srcs,
   dsts, pair count, hops out, stuck out, bits, uniform degree (-1
   when ragged), and the loadmap traversal / termination counter
   slices (zero-length = telemetry off). A built-in lane applied to a
   variant, a rule code and a seed is a [block_router], and so is the
   Symphony driver applied to k_n. *)

external route_block_tree :
  int ->
  int ->
  int64 ->
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
  int ->
  int ->
  int64 ->
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
  int ->
  int ->
  int64 ->
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

(* Symphony on its shortcut-column layout, by its own driver: applied
   to the variant and k_n, a [block_router] over the column as a
   uniform block of degree k_s (the offsets it is passed go unread). *)
external route_symphony :
  int ->
  int ->
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
  unit = "rcm_route_symphony_bc" "rcm_route_symphony"
[@@noalloc]

(* Draws pairs [lo, hi) into the two arrays, draw for draw
   [Stats.Sampler.ordered_indexes] mapped through the survivor source:
   the rank index, or the pool when it is non-empty (the C
   [draw_pair]). Takes the variant first and the generator, whose
   final state it writes back. Returns hi, or the index of the pair a
   pool id outside [0, 2^bits) stopped, with that id in the first
   array. *)
external draw_pairs :
  int ->
  Overlay.Rank.t ->
  int array ->
  Prng.Splitmix.t ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int = "rcm_draw_pairs_bc" "rcm_draw_pairs"
[@@noalloc]

(* The hypercube router draws from the PRNG on every hop, so its
   kernel walks the pairs in order, taking the generator and writing
   its final state back. Arguments as above, plus a survivor source
   (rank index and pool, as [draw_pairs] takes them) between dsts and
   the pair count and the generator last: when the source has members
   the kernel draws the pairs from it, interleaved with the routing
   draws, and srcs/dsts are unused. Returns the number of pairs
   routed; fewer than the count means a drawn pool id was outside the
   node range, and the stuck buffer holds it at that index. *)
external route_hypercube :
  int ->
  int64 ->
  targets ->
  words ->
  offsets ->
  int array ->
  int array ->
  Overlay.Rank.t ->
  int array ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  Prng.Splitmix.t ->
  int = "rcm_route_hypercube_bc" "rcm_route_hypercube"
[@@noalloc]

(* Fold a routed block into the batch totals. *)
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
   [Block] is the opt-in fast path: a driver with the signature of a
   built-in C lane applied to the block code, valid only for rng-free
   routers (the block runs after all pairs are sampled). The [int]
   argument in [bits] position is lane-defined — a plugin driver can
   pack extra static parameters into it inside its closure. *)
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

(* Loadmap counter bump for the [Scalar] lane, one length test when the
   zero-length "telemetry off" buffer is installed — the OCaml twin of
   the NULL-pointer guard in the C kernels. Indices are node ids of the
   routed table, in range by construction. *)
let bump (b : buf) v =
  if Bigarray.Array1.dim b > 0 then
    Bigarray.Array1.unsafe_set b v (Bigarray.Array1.unsafe_get b v + 1)

(* --- drivers -------------------------------------------------------------- *)

let layout_of table context =
  match Overlay.Table.layout table with
  | Some layout -> layout
  | None ->
      invalid_arg
        (Printf.sprintf "Route_batch.%s: table holds per-node rows (flatten it first)" context)

let empty_targets = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0

(* What the C lanes take for a table's entries: the code of the rule
   that computes them (0 for a block, which loads them), the xor
   rule's generator state, and a block's arrays and uniform degree
   (empty arrays and the rule's degree for a rule). The codes are
   route_batch_stubs.c's [BLOCK]..[FLIP_SUFFIX]. Only the built-in
   tree, hypercube, ring and xor tables are rules, so a plugin's Block
   lane always gets a block. A Symphony column goes to
   [route_symphony] alone, as a block of degree k_s without offsets. *)
let entries ~bits = function
  | Overlay.Table.Block f ->
      (0, 0L, Overlay.Flat.targets f, Overlay.Flat.offsets f, Overlay.Flat.uniform_degree f)
  | Overlay.Table.Shortcuts { k_s; column; _ } -> (0, 0L, column, empty_buf, k_s)
  | Overlay.Table.Rule rule ->
      let code, seed =
        match rule with
        | Overlay.Table.Flip -> (1, 0L)
        | Overlay.Table.Finger -> (2, 0L)
        | Overlay.Table.Flip_suffix seed -> (3, seed)
      in
      (code, seed, empty_targets, empty_buf, bits)

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

(* Where a batch's pairs come from: given up front ([route_many]), or
   drawn as the batch runs ([sample_and_route]) from the survivors of
   a rank index, or from a pool of node ids when the pool is
   non-empty. *)
type pairs = Given of int array * int array | Drawn of Overlay.Rank.t * int array

(* One batch on one table: check the inputs, dispatch on the geometry,
   tally and flush. Every drawn pool id is checked before any kernel
   indexes a row, the mask or a loadmap slice with it — a check per
   draw, not a pass over a pool that can hold every node. The table's
   node count is 2^bits, and an id is below it iff no bit at or above
   [bits] is set (a negative id has them all). *)
let route context ~variant ?scratch table ~rng ~alive pairs n =
  let layout = layout_of table context in
  let words = mask_words ~table ~alive context in
  let bits = Overlay.Table.bits table in
  let rank, pool =
    match pairs with
    | Given (srcs, dsts) ->
        let space = Overlay.Table.space table in
        Array.iteri
          (fun k src ->
            Idspace.Space.check space src;
            Idspace.Space.check space dsts.(k))
          srcs;
        (Overlay.Rank.empty, [||])
    | Drawn (rank, pool) ->
        if n < 0 then
          invalid_arg (Printf.sprintf "Route_batch.%s: negative pair count" context);
        (rank, pool)
  in
  let reject v =
    invalid_arg
      (Printf.sprintf "Route_batch.%s: pool id %d outside [0, %d)" context v (1 lsl bits))
  in
  let draw srcs dsts lo hi =
    match pairs with
    | Given _ -> ()
    | Drawn _ ->
        let drawn = draw_pairs variant rank pool rng srcs dsts lo hi bits in
        if drawn < hi then reject srcs.(drawn)
  in
  let code, seed, targets, offsets, deg = entries ~bits layout in
  let trav, term = loadmap_slices ~table context in
  let s = match scratch with Some s -> s | None -> domain_scratch () in
  prepare s n;
  (* The pair arrays the OCaml-side lanes read: the given ones, or the
     scratch's, which [draw] fills with pairs [lo, hi). Reusing them
     keeps a drawn batch from allocating two arrays of [n] per trial. *)
  let endpoints () =
    match pairs with
    | Given (srcs, dsts) -> (srcs, dsts)
    | Drawn _ ->
        if Array.length s.srcs < n then begin
          s.srcs <- Array.make n 0;
          s.dsts <- Array.make n 0
        end;
        (s.srcs, s.dsts)
  in
  (* Block lanes consume no randomness while routing, so drawing every
     pair first reproduces the scalar draw sequence — sample pair k,
     route pair k. *)
  let block (lane : block_router) param =
    let srcs, dsts = endpoints () in
    draw srcs dsts 0 n;
    lane targets words offsets srcs dsts n s.hops_buf s.stuck_buf param deg trav term
  in
  (match Overlay.Table.geometry table with
  | Rcm.Geometry.Tree -> block (route_block_tree variant code seed) bits
  | Rcm.Geometry.Xor -> block (route_block_xor variant code seed) bits
  | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> (
      match layout with
      | Overlay.Table.Shortcuts { k_n; _ } -> block (route_symphony variant k_n) bits
      | Overlay.Table.Block _ | Overlay.Table.Rule _ ->
          block (route_block_ring variant code seed) bits)
  | Rcm.Geometry.Hypercube ->
      let srcs, dsts =
        match pairs with Given (srcs, dsts) -> (srcs, dsts) | Drawn _ -> ([||], [||])
      in
      let routed =
        route_hypercube code seed targets words offsets srcs dsts rank pool n s.hops_buf
          s.stuck_buf bits deg trav term rng
      in
      if routed < n then reject (Bigarray.Array1.unsafe_get s.stuck_buf routed)
  | Rcm.Geometry.Custom { family; params } -> (
      match custom_lane ~family params with
      | Block lane -> block lane bits
      | Scalar ->
          (* Sampling and routing interleave pair by pair — the scalar
             trial loop's draw order for any router, randomized ones
             included. Metrics are flushed once per batch below. *)
          let router = custom_router_exn ~family context in
          let srcs, dsts = endpoints () in
          for k = 0 to n - 1 do
            draw srcs dsts k (k + 1);
            let src = srcs.(k) and dst = dsts.(k) in
            let hops, stuck =
              match router ~on_hop:(bump trav) table ~rng ~alive ~src ~dst with
              | Outcome.Delivered { hops } -> (hops, -1)
              | Outcome.Dropped { hops; stuck_at } -> (hops, stuck_at)
            in
            bump term (if stuck < 0 then dst else stuck);
            Bigarray.Array1.unsafe_set s.hops_buf k hops;
            Bigarray.Array1.unsafe_set s.stuck_buf k stuck
          done));
  tally s n;
  flush_metrics (Overlay.Table.geometry table) s;
  s

let route_many_in variant ?scratch table ~rng ~alive pairs =
  route "route_many" ~variant ?scratch table ~rng ~alive
    (Given (Array.map fst pairs, Array.map snd pairs))
    (Array.length pairs)

let sample_and_route_in variant ?scratch ?pool ?survivors table ~rng ~alive ~pairs =
  let fail what = invalid_arg ("Route_batch.sample_and_route: " ^ what) in
  let indexed rank =
    if Overlay.Rank.count rank < 2 then fail "fewer than two survivors";
    Drawn (rank, [||])
  in
  let source =
    match (pool, survivors) with
    | Some _, Some _ -> fail "both a pool and survivors given"
    | Some pool, None ->
        if Array.length pool < 2 then fail "pool smaller than 2";
        Drawn (Overlay.Rank.empty, pool)
    | None, Some rank ->
        if Overlay.Rank.mask rank != alive then fail "survivors index another mask";
        indexed rank
    | None, None -> indexed (Overlay.Rank.create alive)
  in
  route "sample_and_route" ~variant ?scratch table ~rng ~alive source pairs

let route_many = route_many_in 0

let sample_and_route = sample_and_route_in 0

(* --- kernel variants ------------------------------------------------------ *)

(* The variant every C lane and draw takes: 0 runs the AVX-512 rule
   and Symphony lanes and the PDEP pair draw when the CPU runs
   x86-64-v4 (checked per call, in C) and the portable code otherwise;
   1 runs the portable code on every CPU. The entry points above
   pass 0. *)
external x86_64_v4 : unit -> bool = "rcm_x86_64_v4" [@@noalloc]

type variant = {
  route_many :
    Overlay.Table.t -> rng:Prng.Splitmix.t -> alive:Overlay.Failure.t -> (int * int) array -> scratch;
  sample_and_route :
    ?pool:int array ->
    Overlay.Table.t ->
    rng:Prng.Splitmix.t ->
    alive:Overlay.Failure.t ->
    pairs:int ->
    scratch;
}

let variants =
  List.map
    (fun (name, code) ->
      ( name,
        {
          route_many =
            (fun table ~rng ~alive pairs ->
              route_many_in code ~scratch:(create_scratch ()) table ~rng ~alive pairs);
          sample_and_route =
            (fun ?pool table ~rng ~alive ~pairs ->
              sample_and_route_in code ~scratch:(create_scratch ()) ?pool table ~rng ~alive ~pairs);
        } ))
    ((if x86_64_v4 () then [ ("x86-64-v4", 0) ] else []) @ [ ("default", 1) ])
