type report = {
  alive_nodes : int;
  component_count : int;
  largest : int;
  giant_fraction : float;
  pair_connectivity : float;
}

(* Fraction of ordered alive pairs lying in the same component:
   sum_c s_c (s_c - 1) / (a (a - 1)). This is the information-theoretic
   ceiling on routability — the paper's point that the reachable
   component is a subset of the connected component means measured
   routability can never exceed it. Components are those of the
   underlying undirected graph over the alive nodes, read through
   [iter] without materialising the graph. Fewer than two alive nodes
   form no pair and none form no component, so those ratios are [nan]
   rather than a fabricated 0. *)
let analyze_iter ?alive ~nodes iter =
  let is_alive v = match alive with None -> true | Some a -> a.(v) in
  let alive_nodes = ref 0 in
  let uf = Union_find.create nodes in
  for v = 0 to nodes - 1 do
    if is_alive v then begin
      incr alive_nodes;
      iter v (fun u -> if is_alive u then ignore (Union_find.union uf v u))
    end
  done;
  let sizes = Hashtbl.create 64 in
  for v = 0 to nodes - 1 do
    if is_alive v then begin
      let r = Union_find.find uf v in
      Hashtbl.replace sizes r (1 + Option.value ~default:0 (Hashtbl.find_opt sizes r))
    end
  done;
  let component_count = Hashtbl.length sizes in
  let largest = Hashtbl.fold (fun _ s acc -> max s acc) sizes 0 in
  let a = float_of_int !alive_nodes in
  let connected_pairs =
    Hashtbl.fold (fun _ s acc -> acc +. (float_of_int s *. float_of_int (s - 1))) sizes 0.0
  in
  let pair_connectivity =
    if !alive_nodes < 2 then Float.nan else connected_pairs /. (a *. (a -. 1.0))
  in
  {
    alive_nodes = !alive_nodes;
    component_count;
    largest;
    giant_fraction = (if !alive_nodes = 0 then Float.nan else float_of_int largest /. a);
    pair_connectivity;
  }
