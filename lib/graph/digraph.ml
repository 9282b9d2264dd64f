type t = { offsets : int array; targets : int array }

let node_count t = Array.length t.offsets - 1

let edge_count t = Array.length t.targets

let out_degree t v = t.offsets.(v + 1) - t.offsets.(v)

let iter_successors t v f =
  for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.targets.(i)
  done

let fold_successors t v ~init ~f =
  let acc = ref init in
  iter_successors t v (fun u -> acc := f !acc u);
  !acc

let successors t v = Array.sub t.targets t.offsets.(v) (out_degree t v)

(* Compressed sparse row construction from per-node adjacency. *)
let of_adjacency adjacency =
  let n = Array.length adjacency in
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + Array.length adjacency.(v)
  done;
  let targets = Array.make offsets.(n) 0 in
  Array.iteri
    (fun v neighbours ->
      Array.iteri (fun i u -> targets.(offsets.(v) + i) <- u) neighbours)
    adjacency;
  { offsets; targets }

(* CSR construction driven by caller-supplied iteration — used to
   convert flat overlay blocks without materialising per-node rows. *)
let of_iter ~nodes ~degree ~iter =
  if nodes < 0 then invalid_arg "Digraph.of_iter: negative node count";
  let offsets = Array.make (nodes + 1) 0 in
  for v = 0 to nodes - 1 do
    offsets.(v + 1) <- offsets.(v) + degree v
  done;
  let targets = Array.make offsets.(nodes) 0 in
  let k = ref 0 in
  for v = 0 to nodes - 1 do
    iter v (fun u ->
        if u < 0 || u >= nodes then
          invalid_arg "Digraph.of_iter: successor outside node range";
        targets.(!k) <- u;
        incr k);
    if !k <> offsets.(v + 1) then
      invalid_arg "Digraph.of_iter: iter disagrees with degree"
  done;
  { offsets; targets }

let of_edges ~nodes edges =
  if nodes < 0 then invalid_arg "Digraph.of_edges: negative node count";
  let degree = Array.make nodes 0 in
  List.iter
    (fun (v, u) ->
      if v < 0 || v >= nodes || u < 0 || u >= nodes then
        invalid_arg "Digraph.of_edges: endpoint outside node range";
      degree.(v) <- degree.(v) + 1)
    edges;
  let offsets = Array.make (nodes + 1) 0 in
  for v = 0 to nodes - 1 do
    offsets.(v + 1) <- offsets.(v) + degree.(v)
  done;
  let cursor = Array.copy offsets in
  let targets = Array.make offsets.(nodes) 0 in
  List.iter
    (fun (v, u) ->
      targets.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  { offsets; targets }
