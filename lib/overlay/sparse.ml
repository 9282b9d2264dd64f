(* [contacts] is one uniform-degree Flat block whose entries are node
   indexes or [missing] (-1): entry i of node v sits at
   [v * degree + i] of its targets. Only the targets leave this module,
   never the Flat.t, so no -1 reaches the batch kernel, which routes
   Table blocks. The C sparse walks (sparse_walk.h) read a [t]'s fields
   by position, so their order is fixed: bits, geometry, ids,
   contacts. *)
type t = {
  bits : int;
  geometry : Rcm.Geometry.t;
  ids : int array;
  contacts : Flat.t;
}

let missing = -1

let bits t = t.bits

let geometry t = t.geometry

let node_count t = Array.length t.ids

let id_of t index = t.ids.(index)

let ids t = t.ids

let degree t = Flat.uniform_degree t.contacts

let targets t = Flat.targets t.contacts

(* First index in [lo, hi) of the sorted [ids] whose id is >= target;
   [hi] when none. The annotations keep [>=] an int comparison instead
   of a call to the polymorphic compare. *)
let lower_bound_in (ids : int array) lo hi (target : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get ids mid >= target then hi := mid else lo := mid + 1
  done;
  !lo

let lower_bound t target = lower_bound_in t.ids 0 (Array.length t.ids) target

let lower_bound_within t ~lo ~hi target =
  if lo < 0 || lo > hi || hi > Array.length t.ids then
    invalid_arg "Sparse.lower_bound_within: range outside 0..node_count";
  lower_bound_in t.ids lo hi target

(* Index of the first node clockwise from [target] (inclusive),
   wrapping past the top of the ring. *)
let successor_index t target =
  let i = lower_bound t target in
  if i = Array.length t.ids then 0 else i

(* Range of node indexes whose ids share the given [prefix_len]-bit
   prefix of [pattern]: ids are sorted, so it is one contiguous run. *)
let prefix_range t ~pattern ~prefix_len =
  if prefix_len = 0 then (0, Array.length t.ids)
  else begin
    let width = t.bits - prefix_len in
    let lo_id = pattern land lnot ((1 lsl width) - 1) in
    let hi_id = lo_id + (1 lsl width) in
    (lower_bound t lo_id, lower_bound t hi_id)
  end

(* Sparse.build's passes in C (sparse_stubs.c): the dense-regime id
   draw into [ids], with 4 bytes per id of the space as scratch, and
   one fill of the contact block per rule. The passes that draw take
   the generator and write its final state back. *)
external dense_ids : Prng.Splitmix.t -> Bytes.t -> int array -> unit = "rcm_sparse_dense_ids"
[@@noalloc]

external fill_ring : int array -> int -> Flat.targets -> unit = "rcm_sparse_fill_ring"
[@@noalloc]

external fill_prefix : int array -> int -> Prng.Splitmix.t -> Flat.targets -> unit
  = "rcm_sparse_fill_prefix"
[@@noalloc]

external fill_symphony : int -> int -> float -> Prng.Splitmix.t -> Flat.targets -> unit
  = "rcm_sparse_fill_symphony"
[@@noalloc]

let sample_ids rng ~bits ~count =
  let size = 1 lsl bits in
  if count < 2 || count > size then
    invalid_arg "Sparse.sample_ids: node count outside 2..2^bits";
  if 2 * count >= size then begin
    (* Dense regime: shuffle the whole space and take a prefix, sorted
       (sparse_stubs.c). *)
    let ids = Array.make count 0 in
    dense_ids rng (Bytes.create (4 * size)) ids;
    ids
  end
  else begin
    let seen = Hashtbl.create (2 * count) in
    let chosen = Array.make count 0 in
    let filled = ref 0 in
    while !filled < count do
      let id = Prng.Splitmix.int rng size in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        chosen.(!filled) <- id;
        incr filled
      end
    done;
    Array.sort compare chosen;
    chosen
  end

(* What the overlay holds while ReCord's contacts are drawn. *)
let no_contacts = Flat.init ~nodes:0 ~degree:0 (fun _ _ -> missing)

(* The digit generalisation of the prefix buckets, slot for slot
   Table.record_entry: the (level, rank) contact of node v is a
   uniformly random occupied id matching v's digits above [level] and
   holding digit own + rank (mod b) there, or [missing] when that digit
   subtree is empty. *)
let record_entry t rng ~group v i =
  let bits = t.bits in
  let b = 1 lsl group in
  let id_v = t.ids.(v) in
  let level = (i / (b - 1)) + 1 in
  let rank = (i mod (b - 1)) + 1 in
  let own = Idspace.Digit.get ~bits ~group id_v level in
  let pattern = Idspace.Digit.set ~bits ~group id_v level ((own + rank) mod b) in
  let lo, hi = prefix_range t ~pattern ~prefix_len:(level * group) in
  if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)

(* The built-in rules fill their block in C, v ascending then entry
   ascending, drawing from [rng] in that order:
   - Chord (ring): finger i of v is the first occupied id clockwise
     from id_v + 2^i; finger 0 is the successor.
   - Kademlia/Plaxton (tree, xor): the level-l contact of v is a
     uniformly random occupied id matching v's first l-1 bits and
     differing on bit l, or [missing] when there is none.
   - Symphony: on the circle of the n occupied nodes, the next k_n
     nodes, then k_s shortcuts at harmonic distances on n.
   ReCord's entries ([record_entry]) are evaluated in OCaml, in the
   same order. *)
let build ?(rng = Prng.Splitmix.create ~seed:0x5ea5) ~bits ~nodes geometry =
  Rcm.Geometry.check_size_exn "Sparse.build" ~nodes ~bits geometry;
  let ids = sample_ids rng ~bits ~count:nodes in
  let t = { bits; geometry; ids; contacts = no_contacts } in
  let filled degree fill =
    let targets = Flat.create_targets (nodes * degree) in
    fill targets;
    Flat.of_targets ~nodes ~degree targets
  in
  let contacts =
    match geometry with
    | Rcm.Geometry.Ring -> filled bits (fill_ring ids bits)
    | Rcm.Geometry.Tree | Rcm.Geometry.Xor -> filled bits (fill_prefix ids bits rng)
    | Rcm.Geometry.Symphony { k_n; k_s } ->
        filled (k_n + k_s) (fill_symphony k_n k_s (log (float_of_int nodes)) rng)
    | Rcm.Geometry.Hypercube -> assert false (* rejected by check_size *)
    | Rcm.Geometry.Record { h } ->
        let group = Idspace.Id.floor_log2 h in
        Flat.init ~allow_missing:true ~nodes ~degree:(bits / group * (h - 1))
          (record_entry t rng ~group)
  in
  { t with contacts }
