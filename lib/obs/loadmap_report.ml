(* Analysis layer over Loadmap: hot-spot summaries, load CDFs and the
   congestion statistics the hotspot figure plots. Pure functions of
   the counters — nothing here mutates the map or touches a PRNG. *)

type summary = {
  nodes : int;
  active_nodes : int;
  total : int;
  mean : float;
  max : int;
  congestion : float;
  gini : float;
}

(* Gini coefficient of a sorted-ascending count array, via the exact
   rank formula G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n with
   1-based ranks. 0 for a uniform load, -> 1 as one node absorbs
   everything; 0 by convention when nothing was recorded. *)
let gini_sorted sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 and weighted = ref 0.0 in
    Array.iteri
      (fun i x ->
        let x = float_of_int x in
        sum := !sum +. x;
        weighted := !weighted +. (float_of_int (i + 1) *. x))
      sorted;
    if !sum <= 0.0 then 0.0
    else
      (2.0 *. !weighted /. (float_of_int n *. !sum))
      -. (float_of_int (n + 1) /. float_of_int n)
  end

let gini counts =
  let sorted = Array.copy counts in
  Array.sort compare sorted;
  gini_sorted sorted

let summarize_counts counts =
  let nodes = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  let max_load = Array.fold_left max 0 counts in
  let active_nodes =
    Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 counts
  in
  let mean = if nodes = 0 then 0.0 else float_of_int total /. float_of_int nodes in
  {
    nodes;
    active_nodes;
    total;
    mean;
    max = max_load;
    congestion = (if mean > 0.0 then float_of_int max_load /. mean else 0.0);
    gini = gini counts;
  }

let summarize t kind = summarize_counts (Loadmap.counts t kind)

(* Top-k hottest nodes as (node, load), load descending, node index
   ascending among ties — a total order, so the listing is
   deterministic. *)
let hottest ?(top = 10) counts =
  let nodes = Array.length counts in
  let order = Array.init nodes (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare counts.(b) counts.(a) with 0 -> compare a b | c -> c)
    order;
  let k = min top nodes in
  List.init k (fun i -> (order.(i), counts.(order.(i))))

let pp_summary ppf (kind, s) =
  Format.fprintf ppf
    "%-14s total %d over %d/%d nodes  mean %.2f  max %d  congestion %.2f  gini %.3f"
    (Loadmap.kind_name kind) s.total s.active_nodes s.nodes s.mean s.max s.congestion
    s.gini

let pp ?(top = 10) ?pp_node ppf t =
  let pp_node = Option.value ~default:(fun v -> string_of_int v) pp_node in
  List.iter
    (fun kind ->
      let counts = Loadmap.counts t kind in
      let s = summarize_counts counts in
      Format.fprintf ppf "%a@\n" pp_summary (kind, s);
      if s.total > 0 && top > 0 then begin
        Format.fprintf ppf "  hottest:";
        List.iter
          (fun (node, load) ->
            if load > 0 then Format.fprintf ppf " %s:%d" (pp_node node) load)
          (hottest ~top counts);
        Format.fprintf ppf "@\n"
      end)
    Loadmap.all_kinds
