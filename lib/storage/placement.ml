let check o ~key ~count =
  let n = Overlay.Sparse.node_count o in
  let bits = Overlay.Sparse.bits o in
  if count < 0 || count > n then
    invalid_arg "Placement: count outside [0, node_count]";
  if key < 0 || key >= 1 lsl bits then
    invalid_arg "Placement: key outside the identifier space"

(* Successor-list placement: the first [count] nodes clockwise from the
   key (inclusive), i.e. consecutive indexes in the sorted id array
   starting at [successor_index]. *)
let successor_set o ~key ~count =
  let n = Overlay.Sparse.node_count o in
  let first = Overlay.Sparse.successor_index o key in
  Array.init count (fun k -> (first + k) mod n)

(* Neighbourhood placement: the [count] nodes XOR-closest to the key,
   found by trie descent over the sorted id array. The nodes whose ids
   share a [level]-bit prefix form one contiguous index range [lo, hi),
   and one search bounded to that range splits it at the next bit.
   Every node in the half that matches the key's next bit is XOR-closer
   than any node in the other half, so we recurse near-half first and
   fill the remainder from the far half. A descent takes at most [bits]
   splits plus one per node taken, each a binary search within its
   parent's range. *)
let closest_set o ~key ~count =
  let bits = Overlay.Sparse.bits o and ids = Overlay.Sparse.ids o in
  let acc = Array.make count 0 in
  let filled = ref 0 in
  (* [prefix] holds the range's shared top [level] bits, zeros below. *)
  let rec go prefix level lo hi need =
    if need > 0 then begin
      if hi - lo <= need then
        for i = lo to hi - 1 do
          acc.(!filled) <- i;
          incr filled
        done
      else begin
        (* More nodes than [need], so at least two distinct ids: the
           prefix is shorter than [bits]. *)
        let bit = 1 lsl (bits - level - 1) in
        let upper = prefix lor bit in
        let mid = Overlay.Sparse.lower_bound_within o ~lo ~hi upper in
        let before = !filled in
        if key land bit = 0 then begin
          go prefix (level + 1) lo mid need;
          go upper (level + 1) mid hi (need - (!filled - before))
        end
        else begin
          go upper (level + 1) mid hi need;
          go prefix (level + 1) lo mid (need - (!filled - before))
        end
      end
    end
  in
  go 0 0 0 (Array.length ids) count;
  (* Subtree collection preserves index order, not distance order.
     Ids are distinct, so distances are too, and each distance
     (< 2^bits) packs above its index (< 2^bits) into one int, bits
     <= 30: sorting the packed ints sorts by distance. *)
  let packed = Array.map (fun i -> ((ids.(i) lxor key) lsl bits) lor i) acc in
  Array.sort Int.compare packed;
  Array.map (fun p -> p land ((1 lsl bits) - 1)) packed

let candidates o ~key ~count =
  check o ~key ~count;
  match Overlay.Sparse.geometry o with
  | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> successor_set o ~key ~count
  | Rcm.Geometry.Tree | Rcm.Geometry.Xor | Rcm.Geometry.Record _ -> closest_set o ~key ~count
  | Rcm.Geometry.Hypercube ->
      invalid_arg "Placement.candidates: no sparse hypercube overlay exists"

let replica_set o ~key ~r = candidates o ~key ~count:r
