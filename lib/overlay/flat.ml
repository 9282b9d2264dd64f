(* Struct-of-arrays (CSR) neighbour storage. Two Bigarrays:

     offsets : int,   length n+1   (edge offsets; offsets.(n) = edge count)
     targets : int32, length edges (neighbour ids, row-major)

   Bigarrays live outside the OCaml heap, so a block built once is
   shared read-only by every domain of an [Exec.Pool] with zero copying
   and zero GC traffic — the representation behind [Table]'s blocks.
   Node ids fit int32 because [Idspace.Space.max_bits] is 30. *)

type offsets = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type targets = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [uniform] caches the common row degree (-1 when rows differ or the
   block is empty): the batch routing kernels replace the per-hop
   offsets indirection with [v * uniform] when it applies, which is
   every table the overlay builders produce. *)
type t = { offsets : offsets; targets : targets; uniform : int }

let offsets t = t.offsets

let uniform_degree t = t.uniform

let targets t = t.targets

let degree t v = t.offsets.{v + 1} - t.offsets.{v}

(* The offsets reads check [v]; [i] is checked against the row, which
   an unchecked read would leave for a neighbouring row or the end of
   the payload. *)
let neighbor t v i =
  let start = t.offsets.{v} in
  if i < 0 || i >= t.offsets.{v + 1} - start then
    invalid_arg (Printf.sprintf "Flat.neighbor: entry %d outside row %d" i v);
  Int32.to_int (Bigarray.Array1.unsafe_get t.targets (start + i))

let iter_neighbors t v f =
  for i = t.offsets.{v} to t.offsets.{v + 1} - 1 do
    f (Int32.to_int (Bigarray.Array1.unsafe_get t.targets i))
  done

let row t v = Array.init (degree t v) (fun i -> neighbor t v i)

(* Bigarray payload only; the handful of header words is noise. *)
let memory_bytes t =
  (8 * Bigarray.Array1.dim t.offsets) + (4 * Bigarray.Array1.dim t.targets)

let bad_target ~nodes ~context u =
  invalid_arg (Printf.sprintf "Flat.%s: neighbour %d outside [0, %d)" context u nodes)

let check_target ~nodes ~context u = if u < 0 || u >= nodes then bad_target ~nodes ~context u

(* Hint the kernel to back a payload with 2 MiB huge pages (see
   flat_stubs.c); a no-op outside Linux or without THP. *)
external advise_hugepages : ('a, 'b, 'c) Bigarray.Array1.t -> unit
  = "rcm_advise_hugepages"
[@@noalloc]

(* Payloads are advised before anything writes them: the advice only
   shapes pages faulted in after it. *)
let create_targets length =
  let targets = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout length in
  advise_hugepages targets;
  targets

let alloc ~nodes ~edges =
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nodes + 1) in
  advise_hugepages offsets;
  (offsets, create_targets edges)

(* Uniform-degree construction. [f v i] is called for v = 0..nodes-1 in
   ascending order and, within each node, i = 0..degree-1 in ascending
   order — the evaluation order of
   [Array.init nodes (fun v -> Array.init degree (f v))], so a PRNG
   threaded through [f] is left where building those rows would leave
   it.
   [allow_missing] admits -1 entries (sparse overlays' empty buckets). *)
let init ?(allow_missing = false) ~nodes ~degree f =
  if nodes < 0 then invalid_arg "Flat.init: negative node count";
  if degree < 0 then invalid_arg "Flat.init: negative degree";
  let offsets, targets = alloc ~nodes ~edges:(nodes * degree) in
  let lowest = if allow_missing then -1 else 0 in
  let k = ref 0 in
  for v = 0 to nodes - 1 do
    offsets.{v} <- !k;
    for i = 0 to degree - 1 do
      let u = f v i in
      if u < lowest || u >= nodes then bad_target ~nodes ~context:"init" u;
      Bigarray.Array1.unsafe_set targets !k (Int32.of_int u);
      incr k
    done
  done;
  offsets.{nodes} <- !k;
  { offsets; targets; uniform = (if nodes > 0 then degree else -1) }

(* A uniform-degree block over entries already written to [targets],
   [degree] per node. *)
let of_targets ~nodes ~degree targets =
  if nodes < 0 || degree < 0 || Bigarray.Array1.dim targets <> nodes * degree then
    invalid_arg "Flat.of_targets: targets length is not nodes * degree";
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nodes + 1) in
  for v = 0 to nodes do
    Bigarray.Array1.unsafe_set offsets v (v * degree)
  done;
  { offsets; targets; uniform = (if nodes > 0 then degree else -1) }

(* Variable-degree conversion from per-node rows (copies). *)
let of_rows rows =
  let nodes = Array.length rows in
  let edges = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows in
  let offsets, targets = alloc ~nodes ~edges in
  let k = ref 0 in
  Array.iteri
    (fun v neighbours ->
      offsets.{v} <- !k;
      Array.iter
        (fun u ->
          check_target ~nodes ~context:"of_rows" u;
          Bigarray.Array1.unsafe_set targets !k (Int32.of_int u);
          incr k)
        neighbours)
    rows;
  offsets.{nodes} <- !k;
  let uniform =
    if nodes = 0 then -1
    else begin
      let d = Array.length rows.(0) in
      if Array.for_all (fun row -> Array.length row = d) rows then d else -1
    end
  in
  { offsets; targets; uniform }
