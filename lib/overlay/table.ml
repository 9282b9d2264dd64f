type backend = Flat

(* Rows is churn's mutable matrix, one heap array per node, repaired in
   place ([of_neighbors] only); every other table is flat: a shared
   read-only struct-of-arrays block, a closed-form rule evaluated on
   each read, or Symphony's computed successors beside a shortcut
   column. *)
type rule = Flip | Finger | Flip_suffix of int64

type layout =
  | Block of Flat.t
  | Rule of rule
  | Shortcuts of { k_n : int; k_s : int; column : Flat.targets }

type repr = Rows of int array array | Flat of layout

type t = { space : Idspace.Space.t; geometry : Rcm.Geometry.t; repr : repr }

let space t = t.space

let geometry t = t.geometry

let layout t = match t.repr with Rows _ -> None | Flat l -> Some l

let node_count t = Idspace.Space.size t.space

let bits t = Idspace.Space.bits t.space

(* Per-geometry table entries. A block evaluates entry [(v, i)] for v
   ascending then i ascending, so randomized constructions consume PRNG
   draws in row order; a rule evaluates the same functions on each
   read.

   Tree (Plaxton): the level-i neighbour of v matches v on bits 1..i-1,
   differs on bit i, and — so that every successful hop corrects exactly
   one differing bit, as the paper's n(h) = C(d,h), p = (1-q)^h model
   requires — agrees with v on all lower-order bits. The hypercube (CAN)
   table is topologically identical (the d nodes at Hamming distance
   one) but routed greedily in any bit order. Bit i + 1 counting from
   the MSB (the convention of [Idspace.Id.flip_bit]) is 2^(bits-1-i). *)
let[@inline] tree_entry ~bits v i = v lxor (1 lsl (bits - 1 - i))

(* XOR (Kademlia): the level-i bucket contact matches v on bits 1..i-1,
   differs on bit i, and has uniformly random lower-order bits — the
   construction of section 3.3: the tree entry with its bits-1-i low
   bits taken from [suffix]. *)
let[@inline] xor_entry ~bits v i ~suffix =
  let bit = 1 lsl (bits - 1 - i) in
  (v lxor bit) land lnot (bit - 1) lor (suffix land (bit - 1))

(* Ring (Chord): finger i of node v points at clockwise distance exactly
   2^i (classic Chord over a fully-populated ring; finger 0 is the
   successor). With deterministic fingers a node at phase m always has m
   usable fingers, matching the paper's q^m failure probability and
   keeping the analysis a true lower bound on routability. *)
let ring_entry ~size v i = (v + (1 lsl i)) land (size - 1)

(* Randomized Chord (ablation A4): finger i drawn uniformly from
   clockwise distance [2^i, 2^(i+1)). Near the destination the top
   finger can overshoot, so routability is slightly below the
   deterministic variant. *)
let ring_randomized_entry ~size rng v i =
  let lo = 1 lsl i in
  let dist = lo + Prng.Splitmix.int rng lo in
  (v + dist) land (size - 1)

(* Chord with a successor list: the next [successors] nodes clockwise
   (distances 1..successors), as in real Chord. Distances that are
   powers of two duplicate existing fingers and add nothing; the greedy
   router treats the rest as short fallback fingers. *)
let ring_with_successors_entry ~bits ~size v i =
  if i < bits then (v + (1 lsl i)) land (size - 1)
  else (v + (i - bits) + 1) land (size - 1)

(* ReCord over base-b digits, b = 2^group: slot i of node v is
   (level, rank) with level = i / (b-1) + 1 (most significant digit
   first) and rank = i mod (b-1) + 1. The entry carries v's digits
   above [level], own + rank (mod b) at [level], and lower-order bits
   from one draw over the whole space — the digit generalisation of
   xor_entry, one draw per entry. *)
let record_entry ~bits ~group rng v i =
  let b = 1 lsl group in
  let level = (i / (b - 1)) + 1 in
  let rank = (i mod (b - 1)) + 1 in
  let own = Idspace.Digit.get ~bits ~group v level in
  let stepped = Idspace.Digit.set ~bits ~group v level ((own + rank) mod b) in
  let suffix = Prng.Splitmix.int rng (1 lsl bits) in
  Idspace.Id.with_suffix ~bits stepped ~prefix_len:(level * group) ~suffix

(* A rule table's entry (v, i), from the entry function its build
   evaluated. Flip_suffix's suffix is draw v * bits + i of the build
   generator, computed in O(1) and without allocating: the build took
   [Splitmix.int rng 2^bits] there, which never rejects at a
   power-of-two bound, so it is that draw's top 62 bits mod 2^bits,
   and xor_entry keeps only their low bits-1-i bits. *)
let[@inline] rule_entry ~bits rule v i =
  match rule with
  | Flip -> tree_entry ~bits v i
  | Finger -> ring_entry ~size:(1 lsl bits) v i
  | Flip_suffix seed ->
      xor_entry ~bits v i ~suffix:(Prng.Splitmix.bits62_at seed ((v * bits) + i))

(* Symphony's entry (v, i): near neighbour i < k_n is the (i + 1)-th
   successor, computed; shortcut i - k_n is read from the column, which
   holds node v's k_s shortcuts from index v * k_s. *)
let[@inline] shortcuts_entry ~bits ~k_n ~k_s column v i =
  if i < k_n then (v + i + 1) land ((1 lsl bits) - 1)
  else Int32.to_int (Bigarray.Array1.unsafe_get column ((v * k_s) + i - k_n))

(* Rows raise on a bad index by themselves; a block checks its own
   reads; a rule or a column would read an unspecified shift, another
   node's shortcuts or past the column, so their accessors check
   first. *)
let check_node t context v =
  if v < 0 || v >= node_count t then
    invalid_arg
      (Printf.sprintf "Table.%s: node %d outside [0, %d)" context v (node_count t))

(* The uniform degree of a rule or a column. *)
let computed_degree t = function
  | Shortcuts { k_n; k_s; _ } -> k_n + k_s
  | Block _ | Rule _ -> bits t

let check_entry t layout v i =
  check_node t "neighbor" v;
  let degree = computed_degree t layout in
  if i < 0 || i >= degree then
    invalid_arg (Printf.sprintf "Table.neighbor: entry %d outside [0, %d) of node %d" i degree v)

let neighbor t v i =
  match t.repr with
  | Rows rows -> rows.(v).(i)
  | Flat (Block f) -> Flat.neighbor f v i
  | Flat (Rule rule as layout) ->
      check_entry t layout v i;
      rule_entry ~bits:(bits t) rule v i
  | Flat (Shortcuts { k_n; k_s; column } as layout) ->
      check_entry t layout v i;
      shortcuts_entry ~bits:(bits t) ~k_n ~k_s column v i

let degree t v =
  match t.repr with
  | Rows rows -> Array.length rows.(v)
  | Flat (Block f) -> Flat.degree f v
  | Flat layout ->
      check_node t "degree" v;
      computed_degree t layout

let neighbors t v =
  match t.repr with
  | Rows rows -> rows.(v)
  | Flat (Block f) -> Flat.row f v
  | Flat _ -> Array.init (degree t v) (neighbor t v)

let iter_neighbors t v f =
  match t.repr with
  | Rows rows -> Array.iter f rows.(v)
  | Flat (Block fl) -> Flat.iter_neighbors fl v f
  | Flat (Rule rule) ->
      check_node t "iter_neighbors" v;
      let bits = bits t in
      for i = 0 to bits - 1 do
        f (rule_entry ~bits rule v i)
      done
  | Flat (Shortcuts { k_n; k_s; column }) ->
      check_node t "iter_neighbors" v;
      let bits = bits t in
      for i = 0 to k_n + k_s - 1 do
        f (shortcuts_entry ~bits ~k_n ~k_s column v i)
      done

(* Rows: one boxed array per node (header word + elements) under the
   outer array; an OCaml word is 8 bytes. A block: its Bigarray
   payloads. A rule has no adjacency payload, and a column only its
   int32 shortcuts. *)
let memory_bytes t =
  match t.repr with
  | Rows rows ->
      let n = Array.length rows in
      8 * (1 + n + Array.fold_left (fun acc row -> acc + 1 + Array.length row) 0 rows)
  | Flat (Block f) -> Flat.memory_bytes f
  | Flat (Rule _) -> 0
  | Flat (Shortcuts { column; _ }) -> 4 * Bigarray.Array1.dim column

let make ~space ~geometry ~degree entry =
  {
    space;
    geometry;
    repr = Flat (Block (Flat.init ~nodes:(Idspace.Space.size space) ~degree entry));
  }

(* Fills a Symphony shortcut column in C (fill_stubs.c): entry e is
   (e / k_s + dist) mod the node count, dist the value
   [Prng.Splitmix.harmonic_int ~n:(nodes - 1)] takes at draw e of the
   generator at [state] ([Splitmix.float] at that draw, through the
   same libm [exp]), with ln of the node count passed in. *)
external fill_shortcuts :
  Flat.targets -> (int[@untagged]) -> (float[@unboxed]) -> (int64[@unboxed]) -> unit
  = "rcm_fill_shortcuts_bc" "rcm_fill_shortcuts"
[@@noalloc]

(* The builtin tree, hypercube, ring and xor tables are rules: nothing
   is stored, and every read evaluates the entry function. An xor rule
   keeps the generator's state before its draws and advances the
   generator past all 2^bits * bits of them, so the resume state is
   that of drawing every suffix in row order. Symphony's successors
   draw nothing and are computed; its shortcut j of node v is draw
   v * k_s + j, stored in a column, and the generator is advanced past
   all 2^bits * k_s draws. A ReCord table is a block of its drawn
   entries. *)
let build ?(rng = Prng.Splitmix.create ~seed:0x5eed) ~bits geometry =
  Rcm.Geometry.check_size_exn "Table.build" ~bits geometry;
  let space = Idspace.Space.create ~bits in
  let size = Idspace.Space.size space in
  let flat layout = { space; geometry; repr = Flat layout } in
  match geometry with
  | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube -> flat (Rule Flip)
  | Rcm.Geometry.Ring -> flat (Rule Finger)
  | Rcm.Geometry.Xor ->
      let seed = Prng.Splitmix.state rng in
      Prng.Splitmix.advance rng (size * bits);
      flat (Rule (Flip_suffix seed))
  | Rcm.Geometry.Symphony { k_n; k_s } ->
      let column = Flat.create_targets (size * k_s) in
      fill_shortcuts column k_s (log (float_of_int size)) (Prng.Splitmix.state rng);
      Prng.Splitmix.advance rng (size * k_s);
      flat (Shortcuts { k_n; k_s; column })
  | Rcm.Geometry.Record { h } ->
      let group = Idspace.Id.floor_log2 h in
      make ~space ~geometry ~degree:(bits / group * (h - 1)) (record_entry ~bits ~group rng)

(* Wrap an externally managed neighbour matrix (no copy): the churn
   simulator repairs rows in place and routes through the shared
   table. The only row table — a mutable-by-design overlay must not be
   flattened into a shared read-only block. *)
let of_neighbors ~bits geometry neighbors =
  let space = Idspace.Space.create ~bits in
  if Array.length neighbors <> Idspace.Space.size space then
    invalid_arg "Table.of_neighbors: row count differs from the space size";
  Array.iter (fun row -> Array.iter (Idspace.Space.check space) row) neighbors;
  { space; geometry; repr = Rows neighbors }

let flatten t =
  match t.repr with Flat _ -> t | Rows rows -> { t with repr = Flat (Block (Flat.of_rows rows)) }

(* Real Symphony links are bidirectional: a node routes over its own
   near neighbours and shortcuts in both directions *and* over the
   shortcuts that chose it as an endpoint. The paper's model (and
   [build]) is the unidirectional basic geometry; this variant is the
   deployed protocol, used by ablation A9. Degrees vary per node, so
   the sorted link sets become a variable-degree block. *)
let build_symphony_bidirectional ?(rng = Prng.Splitmix.create ~seed:0x51de) ~bits ~k_n ~k_s
    () =
  let geometry = Rcm.Geometry.Symphony { k_n; k_s } in
  Rcm.Geometry.check_size_exn "Table.build_symphony_bidirectional" ~bits geometry;
  let space = Idspace.Space.create ~bits in
  let size = Idspace.Space.size space in
  if (2 * k_n) + k_s >= size then
    invalid_arg "Table.build_symphony_bidirectional: degree exceeds ring size";
  let buckets = Array.make size [] in
  let add a b =
    if a <> b then begin
      buckets.(a) <- b :: buckets.(a);
      buckets.(b) <- a :: buckets.(b)
    end
  in
  for v = 0 to size - 1 do
    for j = 1 to k_n do
      add v ((v + j) land (size - 1))
    done;
    for _ = 1 to k_s do
      let dist = Prng.Splitmix.harmonic_int rng ~n:(size - 1) in
      add v ((v + dist) land (size - 1))
    done
  done;
  let neighbors =
    Array.map (fun links -> Array.of_list (List.sort_uniq compare links)) buckets
  in
  { space; geometry; repr = Flat (Block (Flat.of_rows neighbors)) }

let build_ring_with_successors ~bits ~successors () =
  if successors < 0 then invalid_arg "Table.build_ring_with_successors: negative count";
  if successors >= 1 lsl bits then
    invalid_arg "Table.build_ring_with_successors: list longer than the ring";
  let space = Idspace.Space.create ~bits in
  let size = Idspace.Space.size space in
  make ~space ~geometry:Rcm.Geometry.Ring ~degree:(bits + successors)
    (ring_with_successors_entry ~bits ~size)

let build_randomized_ring ?(rng = Prng.Splitmix.create ~seed:0x5eed) ~bits () =
  let space = Idspace.Space.create ~bits in
  let size = Idspace.Space.size space in
  make ~space ~geometry:Rcm.Geometry.Ring ~degree:bits (ring_randomized_entry ~size rng)

(* Ablation A3: Kademlia bucket contacts without suffix randomisation —
   the level-i contact differs from the owner in bit i only. Under XOR
   routing this realises the Markov chain of Fig. 5(b) exactly. *)
let build_deterministic_xor ~bits () =
  let space = Idspace.Space.create ~bits in
  make ~space ~geometry:Rcm.Geometry.Xor ~degree:bits (tree_entry ~bits)
