(* Outcome counting is observation-only: it happens after the routing
   walk finished, consumes no randomness, and is gated on the global
   metrics flag, so enabling metrics cannot change any simulation
   result. All outcome classes of the geometry are registered on the
   first routed message so the [--metrics] summary always shows the
   full delivered / dead_end / loop partition, including zeroes. *)
let record geometry outcome =
  if Obs.Metrics.enabled () then begin
    let name = Rcm.Geometry.slug geometry in
    List.iter
      (fun label -> ignore (Obs.Metrics.counter (Printf.sprintf "routing/%s/%s" name label)))
      Outcome.metric_labels;
    Obs.Metrics.incr_named
      (Printf.sprintf "routing/%s/%s" name (Outcome.metric_label outcome));
    match outcome with
    | Outcome.Delivered { hops } ->
        Obs.Metrics.observe_named (Printf.sprintf "routing/%s/hops" name) (float_of_int hops)
    | Outcome.Dropped _ -> ()
  end

(* Per-node load accounting, gated exactly like [record] above but on
   the loadmap sink: every accepted hop (the on_hop contract — each
   node the message reaches after [src], including the final one) is a
   traversal of the node it lands on, and every walk terminates
   somewhere — at [dst] when delivered, at the stuck node when dropped.
   The batched kernel counts the same events at the same points
   (pinned by test/test_batch.ml). *)
let count_termination lm ~dst outcome =
  match outcome with
  | Outcome.Delivered _ -> Obs.Loadmap.record lm Obs.Loadmap.Route_termination dst
  | Outcome.Dropped { stuck_at; _ } ->
      Obs.Loadmap.record lm Obs.Loadmap.Route_termination stuck_at

let route ?on_hop table ~rng ~alive ~src ~dst =
  let space = Overlay.Table.space table in
  Idspace.Space.check space src;
  Idspace.Space.check space dst;
  let geometry = Overlay.Table.geometry table in
  let lm = Obs.Loadmap.sink () in
  let on_hop =
    match lm with
    | None -> on_hop
    | Some lm -> (
        let count v = Obs.Loadmap.record lm Obs.Loadmap.Route_traversal v in
        match on_hop with
        | None -> Some count
        | Some f ->
            Some
              (fun v ->
                count v;
                f v))
  in
  let outcome =
    match geometry with
    | Rcm.Geometry.Tree -> Tree_router.route ?on_hop table ~alive ~src ~dst
    | Rcm.Geometry.Hypercube -> Hypercube_router.route ?on_hop table ~rng ~alive ~src ~dst
    | Rcm.Geometry.Xor -> Xor_router.route ?on_hop table ~alive ~src ~dst
    | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ ->
        Greedy_ring.route ?on_hop table ~alive ~src ~dst
    | Rcm.Geometry.Record { h } -> Record_router.route ?on_hop ~h table ~alive ~src ~dst
  in
  Option.iter (fun lm -> count_termination lm ~dst outcome) lm;
  record geometry outcome;
  outcome

let route_with_path table ~rng ~alive ~src ~dst =
  let visited = ref [ src ] in
  let outcome = route ~on_hop:(fun v -> visited := v :: !visited) table ~rng ~alive ~src ~dst in
  (outcome, List.rev !visited)
