(* Kademlia-style k-buckets with the maintenance discipline of real
   implementations: contacts kept in least-recently-seen order (head at
   index 0, tail at the end), ping-before-evict on the head, and a
   bounded replacement cache whose most-recently-seen entry is promoted
   when a dead head is evicted.

   Storage is flat. Bucket [b = v * bits + level - 1] owns the contact
   slots [b * stride ..] of [contacts] and the cache slots
   [b * cache_stride ..] of [cache]; [len.(b)] and [cache_len.(b)] say
   how many are in use. Every maintenance step moves ints within those
   slots one store at a time: the arrays live in the major heap, where
   [Array.blit] would pass every element through [caml_modify], while
   a store typed [int] needs no write barrier. Scans are loops over
   [int array]s, so they compare ints directly and build no closure;
   the churn hot path allocates nothing. *)

type t = {
  space : Idspace.Space.t;
  bits : int;
  nodes : int;
  k : int;
  cache_k : int;
  stride : int;
  cache_stride : int;
  contacts : int array;
  len : int array;
  cache : int array;
  cache_len : int array;
}

type maintenance =
  | No_contact
  | Refreshed of int
  | Evicted of { dead : int; promoted : int option }

let space t = t.space

let bits t = t.bits

let node_count t = t.nodes

let k t = t.k

let cache_k t = t.cache_k

let capacity t ~level =
  let candidates = 1 lsl (t.bits - level) in
  if t.k < candidates then t.k else candidates

(* Explicit range checks: a flat layout would otherwise let an
   out-of-range node or contact address a neighbour's slots. *)
let check_node t fn v =
  if v < 0 || v >= t.nodes then invalid_arg (fn ^ ": node outside 0..2^bits-1")

let check_level t fn level =
  if level < 1 || level > t.bits then invalid_arg (fn ^ ": level outside 1..bits")

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

(* Position of [id] among the [n] entries of [a] starting at [off], or
   -1. *)
let index_of (a : int array) off n id =
  let i = ref 0 in
  while !i < n && a.(off + !i) <> id do
    incr i
  done;
  if !i < n then !i else -1

(* One rejection draw for bucket slot [filled]: a suffix already taken
   is redrawn without counting an attempt; a dead candidate is retried
   up to 8 times, then accepted. For a fixed prefix, id and suffix are
   in bijection, so scanning the ids written so far is the same test as
   remembering the drawn suffixes. *)
let rec draw ~alive rng contacts ~off ~filled ~prefix ~candidates attempts =
  let id = prefix lor Prng.Splitmix.int rng candidates in
  if index_of contacts off filled id >= 0 then
    draw ~alive rng contacts ~off ~filled ~prefix ~candidates attempts
  else
    match alive with
    | Some is_alive when attempts < 8 && not (is_alive id) ->
        draw ~alive rng contacts ~off ~filled ~prefix ~candidates (attempts + 1)
    | Some _ | None -> id

(* All candidates for the level bucket of v share v's first level-1
   bits and differ on bit [level]; there are 2^(bits-level) of them.
   When the candidate set is small we enumerate it; otherwise we draw k
   distinct random suffixes by rejection (k << candidates). With
   [?alive] a dead draw is retried up to 8 times before being accepted,
   so redraws under churn prefer live contacts without ever spinning on
   a mostly-dead population. Writes straight into the bucket's slots. *)
let sample_bucket ?alive t rng v ~level =
  let b = (v * t.bits) + level - 1 in
  let off = b * t.stride in
  let candidates = 1 lsl (t.bits - level) in
  let prefix = (v lxor candidates) land lnot (candidates - 1) in
  if candidates <= t.k then begin
    for suffix = 0 to candidates - 1 do
      t.contacts.(off + suffix) <- prefix lor suffix
    done;
    t.len.(b) <- candidates
  end
  else begin
    for filled = 0 to t.k - 1 do
      t.contacts.(off + filled) <-
        draw ~alive rng t.contacts ~off ~filled ~prefix ~candidates 0
    done;
    t.len.(b) <- t.k
  end

let build ?(rng = Prng.Splitmix.create ~seed:0xb0cce) ?(cache_k = 0) ~bits ~k () =
  if k < 1 then invalid_arg "Kbucket.build: k < 1";
  if cache_k < 0 then invalid_arg "Kbucket.build: cache_k < 0";
  let space = Idspace.Space.create ~bits in
  let nodes = Idspace.Space.size space in
  (* No bucket holds more than the 2^(bits-1) level-1 candidates, so a
     huge k or cache_k costs no more than that per slot. *)
  let widest = 1 lsl (bits - 1) in
  let stride = min k widest and cache_stride = min cache_k widest in
  let buckets = nodes * bits in
  let t =
    {
      space;
      bits;
      nodes;
      k;
      cache_k;
      stride;
      cache_stride;
      contacts = Array.make (buckets * stride) 0;
      len = Array.make buckets 0;
      cache = Array.make (buckets * cache_stride) 0;
      cache_len = Array.make buckets 0;
    }
  in
  for v = 0 to nodes - 1 do
    for level = 1 to bits do
      sample_bucket t rng v ~level
    done
  done;
  t

let rebuild_bucket ?alive t rng v ~level =
  let b = bucket_index t "Kbucket.rebuild_bucket" v level in
  sample_bucket ?alive t rng v ~level;
  t.cache_len.(b) <- 0

let iter_contacts t v f =
  check_node t "Kbucket.iter_contacts" v;
  for b = v * t.bits to ((v + 1) * t.bits) - 1 do
    let off = b * t.stride in
    for i = 0 to t.len.(b) - 1 do
      f t.contacts.(off + i)
    done
  done

(* Moves the [count] entries after slot [dst] down by one slot. *)
let shift_down (a : int array) dst count =
  for j = dst to dst + count - 1 do
    a.(j) <- a.(j + 1)
  done

(* Moves entry [i] of the [n] entries at [off] to the tail, keeping the
   others in order. *)
let move_to_tail (a : int array) off n i =
  let x = a.(off + i) in
  shift_down a (off + i) (n - i - 1);
  a.(off + n - 1) <- x

let observe t v id =
  check_node t "Kbucket.observe" v;
  check_node t "Kbucket.observe" id;
  if v <> id then begin
    let level = t.bits - Idspace.Id.floor_log2 (v lxor id) in
    let b = (v * t.bits) + level - 1 in
    let off = b * t.stride and n = t.len.(b) in
    let i = index_of t.contacts off n id in
    if i >= 0 then move_to_tail t.contacts off n i
    else if n < capacity t ~level then begin
      t.contacts.(off + n) <- id;
      t.len.(b) <- n + 1
    end
    else if t.cache_k > 0 then begin
      let coff = b * t.cache_stride and m = t.cache_len.(b) in
      let j = index_of t.cache coff m id in
      if j >= 0 then move_to_tail t.cache coff m j
      else if m < t.cache_stride then begin
        t.cache.(coff + m) <- id;
        t.cache_len.(b) <- m + 1
      end
      else begin
        (* Full cache: the oldest entry drops out at the head. *)
        shift_down t.cache coff (m - 1);
        t.cache.(coff + m - 1) <- id
      end
    end
  end

(* Ping-before-evict on the head of non-empty bucket [b], whose liveness
   the caller has already probed: a live head rotates to the tail; a
   dead one is dropped and the cache's newest entry, if any, takes the
   freed tail slot. *)
let ping_head t b ~head_alive =
  let off = b * t.stride and n = t.len.(b) in
  let head = t.contacts.(off) in
  shift_down t.contacts off (n - 1);
  if head_alive then t.contacts.(off + n - 1) <- head
  else begin
    let m = t.cache_len.(b) in
    if m = 0 then t.len.(b) <- n - 1
    else begin
      t.contacts.(off + n - 1) <- t.cache.((b * t.cache_stride) + m - 1);
      t.cache_len.(b) <- m - 1
    end
  end

let ping_evict t v ~level ~alive =
  let b = bucket_index t "Kbucket.ping_evict" v level in
  if t.len.(b) = 0 then No_contact
  else begin
    let head = t.contacts.(b * t.stride) in
    let head_alive = alive head in
    let promoted =
      let m = t.cache_len.(b) in
      if head_alive || m = 0 then None
      else Some t.cache.((b * t.cache_stride) + m - 1)
    in
    ping_head t b ~head_alive;
    if head_alive then Refreshed head else Evicted { dead = head; promoted }
  end

let maintain t v ~alive =
  check_node t "Kbucket.maintain" v;
  for b = v * t.bits to ((v + 1) * t.bits) - 1 do
    if t.len.(b) > 0 then ping_head t b ~head_alive:(alive t.contacts.(b * t.stride))
  done

let invariant_violation t =
  let fail = ref None in
  let note msg = if !fail = None then fail := Some msg in
  for v = 0 to t.nodes - 1 do
    for level = 1 to t.bits do
      let contacts = bucket t v level and cached = cache t v level in
      if Array.length contacts > capacity t ~level then
        note (Printf.sprintf "node %d level %d: over capacity" v level);
      if Array.length cached > t.cache_k then
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
          if index_of entries 0 i id >= 0 then
            note (Printf.sprintf "node %d level %d: duplicate %d" v level id))
        entries
    done
  done;
  !fail
