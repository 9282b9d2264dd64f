type trial = {
  connectivity : Graph.Components.report;
  routability : float;
  routed_pairs : int;
}

type report = {
  geometry : Rcm.Geometry.t;
  bits : int;
  q : float;
  trials : trial list;
  mean_pair_connectivity : float;
  mean_giant_fraction : float;
  mean_routability : float;
}

(* Components of the failed overlay, read from the table in place: a
   rule table's entries are computed on each read, so a per-trial copy
   would walk it once more than needed. *)
let components table alive =
  Graph.Components.analyze_iter
    ~alive:(Overlay.Failure.to_bool_array alive)
    ~nodes:(Overlay.Table.node_count table)
    (Overlay.Table.iter_neighbors table)

(* Connectivity vs routability on the *same* failed instance: the
   reachable component is a subset of the connected component
   (section 4.1), so measured routability must not exceed
   pair-connectivity. The experiment quantifies the gap the paper's
   introduction argues makes percolation theory insufficient. *)
let run_trial ~bits ~q geometry cache build_seed ~pairs =
  Obs.Trace.span "percolation/trial"
    ~attrs:
      (if Obs.Trace.enabled () then
         [ ("geometry", Obs.Trace.String (Rcm.Geometry.slug geometry)); ("q", Obs.Trace.Float q) ]
       else [])
  @@ fun () ->
  let table, rng = Trial.table ?cache ~bits geometry build_seed in
  let alive =
    Obs.Trace.span "failure/inject"
      ~attrs:(if Obs.Trace.enabled () then [ ("q", Obs.Trace.Float q) ] else [])
      (fun () -> Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table))
  in
  let connectivity = components table alive in
  let routed =
    Trial.run ~table ~rng ~alive ~pairs (fun src dst ->
        Routing.Router.route table ~rng ~alive ~src ~dst)
  in
  { connectivity; routability = Trial.routability [ routed ]; routed_pairs = routed.attempted }

(* The mean of [f] over the trials where it is defined: a trial with
   too few survivors has no sample, and none at all is [nan]. *)
let mean_defined f trials =
  let sum, n =
    List.fold_left
      (fun (sum, n) t ->
        let x = f t in
        if Float.is_nan x then (sum, n) else (sum +. x, n + 1))
      (0.0, 0) trials
  in
  if n = 0 then Float.nan else sum /. float_of_int n

let run ?pool ?cache ?(trials = 3) ?(pairs = 2_000) ?(seed = 42) ~bits ~q geometry =
  if trials < 1 then invalid_arg "Percolation.run: need at least one trial";
  if pairs < 1 then invalid_arg "Percolation.run: need at least one pair";
  let all =
    List.concat
      (Sweep.grid ?pool ~label:(Rcm.Geometry.slug geometry) ~name:(Printf.sprintf "q=%g")
         ~seed ~trials [ q ] (fun q build_seed ->
           run_trial ~bits ~q geometry cache build_seed ~pairs))
  in
  {
    geometry;
    bits;
    q;
    trials = all;
    mean_pair_connectivity =
      mean_defined (fun t -> t.connectivity.Graph.Components.pair_connectivity) all;
    mean_giant_fraction =
      mean_defined (fun t -> t.connectivity.Graph.Components.giant_fraction) all;
    mean_routability = mean_defined (fun t -> t.routability) all;
  }

let routing_gap r = r.mean_pair_connectivity -. r.mean_routability

(* Mean giant-component fraction among survivors at one failure level,
   without routing (for threshold estimation), over the trials with a
   survivor. *)
let giant_fraction ?pool ?cache ?(trials = 3) ?(seed = 42) ~bits ~q geometry =
  mean_defined Fun.id
    (List.concat
       (Sweep.grid ?pool ~label:(Rcm.Geometry.slug geometry) ~name:(Printf.sprintf "q=%g")
          ~seed ~trials [ q ] (fun q build_seed ->
            let table, rng = Trial.table ?cache ~bits geometry build_seed in
            let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
            (components table alive).Graph.Components.giant_fraction)))

(* The failure probability at which the giant component among the
   survivors stops covering [target] of them — the finite-size stand-in
   for 1 - p_c in Definition 2. Bisection over the (empirically
   monotone) giant-fraction curve; a [nan] fraction (no survivor in any
   trial) is not covered. Every probe reuses the same trial
   seeds, so with a cache the [steps + 1] probes of the bisection pay
   for [trials] overlay builds in total. *)
let giant_threshold ?pool ?cache ?(trials = 3) ?(target = 0.5) ?(steps = 12) ?(seed = 42)
    ~bits geometry =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Percolation.giant_threshold: target outside (0,1)";
  let cache = match cache with Some c -> c | None -> Overlay.Table_cache.create () in
  let covered q =
    giant_fraction ?pool ~cache ~trials ~seed ~bits ~q geometry >= target
  in
  if not (covered 0.0) then 0.0
  else begin
    let rec bisect lo hi i =
      if i = 0 then (lo +. hi) /. 2.0
      else begin
        let mid = (lo +. hi) /. 2.0 in
        if covered mid then bisect mid hi (i - 1) else bisect lo mid (i - 1)
      end
    in
    bisect 0.0 1.0 steps
  end
