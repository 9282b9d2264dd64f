(* Kademlia-style k-buckets with the maintenance discipline of real
   implementations: contacts kept in least-recently-seen order (head at
   index 0, tail at the end), ping-before-evict on the head, and a
   bounded replacement cache whose most-recently-seen entry is promoted
   when a dead head is evicted.

   Storage is flat. Bucket [b = v * bits + level - 1] owns the contact
   slots [b * stride ..] of [contacts] and the cache slots
   [b * cache_stride ..] of [cache]; [len.(b)] and [cache_len.(b)] say
   how many are in use. The hooks that change buckets (observe,
   maintain, the bucket draws) are C loops over these arrays
   (kbucket_stubs.c), which store immediates: no write barrier, no
   allocation. The field order is the C side's: keep them in step. *)

type t = {
  bits : int;
  nodes : int;
  k : int;
  stride : int;
  cache_stride : int;
  contacts : int array;
  len : int array;
  cache : int array;
  cache_len : int array;
}

external build_buckets : t -> Prng.Splitmix.t -> unit = "rcm_kbucket_build" [@@noalloc]

external rejoin_node : t -> Prng.Splitmix.t -> int -> Bitset.words -> unit
  = "rcm_kbucket_rejoin"
[@@noalloc]

external observe_contact : t -> int -> int -> unit = "rcm_kbucket_observe" [@@noalloc]

external maintain_node : t -> int -> Bitset.words -> unit = "rcm_kbucket_maintain"
[@@noalloc]

let bits t = t.bits

let node_count t = t.nodes

(* [min k (2^(bits-level))]: the candidate-set bound on bucket size. *)
let capacity t ~level =
  let candidates = 1 lsl (t.bits - level) in
  if t.k < candidates then t.k else candidates

(* Explicit range checks, since the C hooks check nothing: a flat
   layout would otherwise let an out-of-range node or contact address
   a neighbour's slots, and the hooks read the mask word of every
   contact they test. *)
let check_node t fn v =
  if v < 0 || v >= t.nodes then invalid_arg (fn ^ ": node outside 0..2^bits-1")

let check_level t fn level =
  if level < 1 || level > t.bits then invalid_arg (fn ^ ": level outside 1..bits")

let check_mask t fn alive =
  if Bitset.length alive <> t.nodes then
    invalid_arg (fn ^ ": alive mask does not cover 2^bits nodes")

let bucket_index t fn v level =
  check_node t fn v;
  check_level t fn level;
  (v * t.bits) + level - 1

let length t v level = t.len.(bucket_index t "Kbucket.length" v level)

let contact t v level i =
  let b = bucket_index t "Kbucket.contact" v level in
  if i < 0 || i >= t.len.(b) then invalid_arg "Kbucket.contact: index outside the bucket";
  t.contacts.((b * t.stride) + i)

let bucket t v level =
  let b = bucket_index t "Kbucket.bucket" v level in
  Array.sub t.contacts (b * t.stride) t.len.(b)

let cache t v level =
  let b = bucket_index t "Kbucket.cache" v level in
  Array.sub t.cache (b * t.cache_stride) t.cache_len.(b)

let build ?(rng = Prng.Splitmix.create ~seed:0xb0cce) ?(cache_k = 0) ~bits ~k () =
  if k < 1 then invalid_arg "Kbucket.build: k < 1";
  if cache_k < 0 then invalid_arg "Kbucket.build: cache_k < 0";
  let nodes = Idspace.Space.size (Idspace.Space.create ~bits) in
  (* No bucket holds more than the 2^(bits-1) level-1 candidates, so a
     huge k or cache_k costs no more than that per slot. *)
  let widest = 1 lsl (bits - 1) in
  let stride = min k widest and cache_stride = min cache_k widest in
  let buckets = nodes * bits in
  let t =
    {
      bits;
      nodes;
      k;
      stride;
      cache_stride;
      contacts = Array.make (buckets * stride) 0;
      len = Array.make buckets 0;
      cache = Array.make (buckets * cache_stride) 0;
      cache_len = Array.make buckets 0;
    }
  in
  build_buckets t rng;
  t

let rejoin t rng ~alive v =
  check_node t "Kbucket.rejoin" v;
  check_mask t "Kbucket.rejoin" alive;
  rejoin_node t rng v (Bitset.words alive)

let observe t v id =
  check_node t "Kbucket.observe" v;
  check_node t "Kbucket.observe" id;
  observe_contact t v id

let maintain t v ~alive =
  check_node t "Kbucket.maintain" v;
  check_mask t "Kbucket.maintain" alive;
  maintain_node t v (Bitset.words alive)

let stale_slots t ~alive =
  check_mask t "Kbucket.stale_slots" alive;
  let stale = ref 0 and total = ref 0 in
  for v = 0 to t.nodes - 1 do
    if Bitset.unsafe_get alive v then
      for level = 1 to t.bits do
        let b = (v * t.bits) + level - 1 in
        let off = b * t.stride and n = t.len.(b) in
        let capacity = capacity t ~level in
        total := !total + capacity;
        stale := !stale + capacity - n;
        for i = off to off + n - 1 do
          if not (Bitset.unsafe_get alive t.contacts.(i)) then incr stale
        done
      done
  done;
  (!stale, !total)

let invariant_violation t =
  let fail = ref None in
  let note msg = if !fail = None then fail := Some msg in
  for v = 0 to t.nodes - 1 do
    for level = 1 to t.bits do
      let contacts = bucket t v level and cached = cache t v level in
      if Array.length contacts > capacity t ~level then
        note (Printf.sprintf "node %d level %d: over capacity" v level);
      if Array.length cached > t.cache_stride then
        note (Printf.sprintf "node %d level %d: cache over bound" v level);
      let entries = Array.append contacts cached in
      Array.iteri
        (fun i id ->
          if id = v then note (Printf.sprintf "node %d level %d: contains self" v level)
          else if
            id < 0 || id >= t.nodes
            || Idspace.Id.highest_differing_bit ~bits:t.bits v id <> Some level
          then
            note
              (Printf.sprintf "node %d level %d: contact %d belongs to another bucket" v
                 level id);
          if Array.exists (( = ) id) (Array.sub entries 0 i) then
            note (Printf.sprintf "node %d level %d: duplicate %d" v level id))
        entries
    done
  done;
  !fail
