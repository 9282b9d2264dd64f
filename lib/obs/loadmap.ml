(* Off-heap per-node load counters for the routing and storage planes.

   One loadmap is a single int Bigarray holding [kind_count] planes of
   [nodes] counters each, laid out kind-major so the per-kind slice a
   consumer (the batched C routing kernel, the report layer) needs is
   one contiguous zero-copy [Array1.sub] view. Counters are plain ints
   bumped without synchronisation: each worker domain records into the
   shard installed in its own domain-local storage (see [with_sink]),
   and shards are merged by integer addition — commutative and
   associative — so merging per-task shards in task-index order yields
   bit-identical totals at any --jobs count.

   Gated like Metrics/Trace/Progress: when no sink is installed
   anywhere, every [note] is one atomic load and a branch. *)

type kind = Route_traversal | Route_termination | Storage_read | Repair

let kind_count = 4

let kind_index = function
  | Route_traversal -> 0
  | Route_termination -> 1
  | Storage_read -> 2
  | Repair -> 3

let all_kinds = [ Route_traversal; Route_termination; Storage_read; Repair ]

let kind_name = function
  | Route_traversal -> "traversals"
  | Route_termination -> "terminations"
  | Storage_read -> "storage_reads"
  | Repair -> "repairs"

type counts = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { nodes : int; data : counts }

let create ~nodes =
  if nodes <= 0 then
    invalid_arg (Printf.sprintf "Loadmap.create: nodes must be positive, got %d" nodes);
  let data =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (kind_count * nodes)
  in
  Bigarray.Array1.fill data 0;
  { nodes; data }

let nodes t = t.nodes

(* The flat Bigarray's own bounds check is not enough here: a negative
   node offset into a non-first kind's stripe still lands inside the
   array, on another kind's counter. Check the node range explicitly. *)
let record t kind node =
  if node < 0 || node >= t.nodes then
    invalid_arg
      (Printf.sprintf "Loadmap.record: node %d out of range [0, %d)" node t.nodes);
  let i = (kind_index kind * t.nodes) + node in
  t.data.{i} <- t.data.{i} + 1

let slice t kind = Bigarray.Array1.sub t.data (kind_index kind * t.nodes) t.nodes

let counts t kind =
  let s = slice t kind in
  Array.init t.nodes (fun i -> Bigarray.Array1.unsafe_get s i)

let merge_into ~dst t =
  if dst.nodes <> t.nodes then
    invalid_arg
      (Printf.sprintf "Loadmap.merge_into: %d-node shard into a %d-node map" t.nodes
         dst.nodes);
  for i = 0 to (kind_count * t.nodes) - 1 do
    Bigarray.Array1.unsafe_set dst.data i
      (Bigarray.Array1.unsafe_get dst.data i + Bigarray.Array1.unsafe_get t.data i)
  done

(* --- the process-wide sink ------------------------------------------------- *)

(* [installed] counts open [with_sink] scopes across every domain, so
   the disabled fast path of [note] is one atomic load (the same
   discipline as Metrics.enabled / Trace / Progress.live). The sink
   itself is domain-local: a worker domain only ever records into the
   shard its current task installed, so recording needs no lock and no
   atomic read-modify-write. *)
let installed = Atomic.make 0

let sink_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let sink () = if Atomic.get installed > 0 then Domain.DLS.get sink_key else None

let with_sink t f =
  let previous = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key (Some t);
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed;
      Domain.DLS.set sink_key previous)
    f

let note kind node =
  if Atomic.get installed > 0 then
    match Domain.DLS.get sink_key with
    | Some t -> record t kind node
    | None -> ()

(* --- persistence ----------------------------------------------------------- *)

let csv_header = "node,traversals,terminations,storage_reads,repairs"

let output_csv t oc =
  output_string oc csv_header;
  output_char oc '\n';
  let n = t.nodes in
  for v = 0 to n - 1 do
    Printf.fprintf oc "%d,%d,%d,%d,%d\n" v t.data.{v}
      t.data.{n + v}
      t.data.{(2 * n) + v}
      t.data.{(3 * n) + v}
  done

let save t path = Atomic_file.write path (output_csv t)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (match input_line ic with
      | header when header = csv_header -> ()
      | header -> corrupt "%s: bad header %S" path header
      | exception End_of_file -> corrupt "%s: empty file" path);
      let rows = ref [] in
      let lineno = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             match List.map int_of_string (String.split_on_char ',' line) with
             | [ node; trav; term; reads; repairs ] ->
                 rows := (node, trav, term, reads, repairs) :: !rows
             | _ | (exception Failure _) ->
                 corrupt "%s: line %d: expected 5 integer fields" path !lineno
         done
       with End_of_file -> ());
      let rows = List.rev !rows in
      let nodes = List.length rows in
      if nodes = 0 then corrupt "%s: no counter rows" path;
      let t = create ~nodes in
      List.iteri
        (fun expected (node, trav, term, reads, repairs) ->
          if node <> expected then
            corrupt "%s: row %d is for node %d (rows must be dense and in order)"
              path expected node;
          t.data.{node} <- trav;
          t.data.{nodes + node} <- term;
          t.data.{(2 * nodes) + node} <- reads;
          t.data.{(3 * nodes) + node} <- repairs)
        rows;
      t)
