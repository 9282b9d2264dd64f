(* [contacts] is one uniform-degree Flat block whose entries are node
   indexes or [missing] (-1): entry i of node v sits at
   [v * degree + i] of its targets. Only the targets leave this module,
   never the Flat.t, so no -1 reaches the batch kernel, which routes
   Table blocks. *)
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

let contacts t index = Flat.row t.contacts index

let occupancy t = float_of_int (node_count t) /. Float.pow 2.0 (float_of_int t.bits)

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

(* Index of the first node clockwise from [target] (inclusive),
   wrapping past the top of the ring. *)
let successor_index t target =
  let i = lower_bound t target in
  if i = Array.length t.ids then 0 else i

let index_of_id t id =
  let i = successor_index t id in
  if t.ids.(i) = id then Some i else None

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

let sample_ids rng ~bits ~count =
  let size = 1 lsl bits in
  if count < 2 || count > size then
    invalid_arg "Sparse.sample_ids: node count outside 2..2^bits";
  if 2 * count >= size then begin
    (* Dense regime: shuffle the whole space and take a prefix.
       Marking the prefix in a byte map and scanning it yields the ids
       ascending, without a sort. *)
    let all = Array.init size Fun.id in
    Prng.Splitmix.shuffle_in_place rng all;
    let chosen = Bytes.make size '\000' in
    for k = 0 to count - 1 do
      Bytes.unsafe_set chosen (Array.unsafe_get all k) '\001'
    done;
    let ids = Array.make count 0 in
    let filled = ref 0 in
    for id = 0 to size - 1 do
      if Bytes.unsafe_get chosen id <> '\000' then begin
        Array.unsafe_set ids !filled id;
        incr filled
      end
    done;
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

(* The builders below return the entry function [(v, i) -> contact]
   that [Flat.init] evaluates for v ascending, then i ascending; each
   keeps state across calls that relies on that order. *)

(* Chord over a sparse ring: finger i of node v is the first occupied
   id clockwise from id_v + 2^i (the standard sparse-Chord rule);
   finger 0 is the successor. Self-pointing fingers (possible in tiny
   rings) are kept and simply never useful.

   The unwrapped target id_v + 2^i rises with v, so each finger keeps
   one forward pointer into the doubled id sequence
   ids.(0..n-1), ids.(0..n-1) + 2^bits: its first position whose value
   reaches the target. Position p names node p mod n, which covers the
   wrap past the top of the ring (p >= n) and past the largest id
   (p = 2n, node 0); two subtractions take the mod without a
   division. *)
let ring_entry t =
  let ids = t.ids in
  let n = Array.length ids in
  let size = 1 lsl t.bits in
  let pointers = Array.make t.bits 0 in
  fun v i ->
    let target = ids.(v) + (1 lsl i) in
    let p = ref (Array.unsafe_get pointers i) in
    while
      !p < 2 * n
      && (if !p < n then Array.unsafe_get ids !p
          else Array.unsafe_get ids (!p - n) + size)
         < target
    do
      incr p
    done;
    Array.unsafe_set pointers i !p;
    let p = if !p >= n then !p - n else !p in
    if p = n then 0 else p

(* Kademlia/Plaxton buckets over a sparse space: the level-i contact of
   v is a uniformly random occupied id matching v's first i-1 bits and
   differing on bit i, or [missing] when no such node exists.

   The buckets come from one descent of the id trie per node:
   [own_lo/own_hi.(l)] is the index range of the ids sharing v's first
   l bits, and the level-l bucket is the other half of the range at
   depth l-1. Consecutive ids share their common prefix, so node v
   recomputes only the levels below the prefix it shares with v-1. *)
let prefix_entry t rng =
  let ids = t.ids in
  let bits = t.bits in
  let own_lo = Array.make (bits + 1) 0 in
  let own_hi = Array.make (bits + 1) (Array.length ids) in
  let bucket_lo = Array.make (bits + 1) 0 in
  let bucket_hi = Array.make (bits + 1) 0 in
  fun v i ->
    if i = 0 then begin
      let id = ids.(v) in
      let shared =
        if v = 0 then 0 else bits - 1 - Idspace.Id.floor_log2 (ids.(v - 1) lxor id)
      in
      for level = shared + 1 to bits do
        let lo = own_lo.(level - 1) and hi = own_hi.(level - 1) in
        let bit = 1 lsl (bits - level) in
        (* The first id with v's first level-1 bits and bit [level] set. *)
        let split = lower_bound_in ids lo hi (id land lnot ((2 * bit) - 1) lor bit) in
        if id land bit = 0 then begin
          own_lo.(level) <- lo;
          own_hi.(level) <- split;
          bucket_lo.(level) <- split;
          bucket_hi.(level) <- hi
        end
        else begin
          own_lo.(level) <- split;
          own_hi.(level) <- hi;
          bucket_lo.(level) <- lo;
          bucket_hi.(level) <- split
        end
      done
    end;
    let lo = bucket_lo.(i + 1) and hi = bucket_hi.(i + 1) in
    if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)

(* Symphony over a sparse ring: positions live on the circle of the n
   occupied nodes; near neighbours are the next k_n nodes and each
   shortcut's position distance follows the harmonic law on n. *)
let symphony_entry ~n ~k_n rng v i =
  if i < k_n then (v + i + 1) mod n else (v + Prng.Splitmix.harmonic_int rng ~n:(n - 1)) mod n

(* Custom-family sparse contact builders, keyed by family name. *)
type custom_builder = t -> Prng.Splitmix.t -> (string * int) list -> int * (int -> int -> int)

let custom_builders : (string, custom_builder) Hashtbl.t = Hashtbl.create 8

let register_custom_builder ~family builder =
  if Hashtbl.mem custom_builders family then
    invalid_arg
      (Printf.sprintf "Sparse.register_custom_builder: %S already registered" family);
  Hashtbl.replace custom_builders family builder

(* What a custom builder's overlay holds before its contacts exist. *)
let no_contacts = Flat.init ~nodes:0 ~degree:0 (fun _ _ -> missing)

let build ?(rng = Prng.Splitmix.create ~seed:0x5ea5) ~bits ~nodes geometry =
  Rcm.Geometry.check_size_exn "Sparse.build" ~nodes ~bits geometry;
  let ids = sample_ids rng ~bits ~count:nodes in
  let t = { bits; geometry; ids; contacts = no_contacts } in
  let degree, entry =
    match geometry with
    | Rcm.Geometry.Ring -> (bits, ring_entry t)
    | Rcm.Geometry.Tree | Rcm.Geometry.Xor -> (bits, prefix_entry t rng)
    | Rcm.Geometry.Symphony { k_n; k_s } -> (k_n + k_s, symphony_entry ~n:nodes ~k_n rng)
    | Rcm.Geometry.Hypercube -> assert false (* rejected by check_size *)
    | Rcm.Geometry.Custom { family; params } -> (
        match Hashtbl.find_opt custom_builders family with
        | Some builder -> builder t rng params
        | None ->
            invalid_arg
              (Printf.sprintf "Sparse.build: family %S has no registered sparse builder"
                 family))
  in
  { t with contacts = Flat.init ~allow_missing:true ~nodes ~degree entry }
