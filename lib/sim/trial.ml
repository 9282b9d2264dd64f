type t = Checkpoint.trial = {
  delivered : int;
  attempted : int;
  alive_fraction : float;
  hop_counts : int array;
}

(* [counts] with one more delivery at [h] hops, grown to exactly
   [h + 1] entries when [h] is past its end, so it stays canonical. *)
let count_hop counts h =
  let counts =
    if h < Array.length counts then counts
    else Array.append counts (Array.make (h + 1 - Array.length counts) 0)
  in
  counts.(h) <- counts.(h) + 1;
  counts

let run ?table ~rng ~alive ~pairs route =
  if pairs < 1 then invalid_arg "Trial.run: need at least one pair";
  let survivors = Overlay.Rank.create alive in
  let count = Overlay.Rank.count survivors in
  let alive_fraction = float_of_int count /. float_of_int (Overlay.Failure.length alive) in
  if count < 2 then { delivered = 0; attempted = 0; alive_fraction; hop_counts = [||] }
  else
    match table with
    | Some table when Routing.Route_batch.enabled () && Overlay.Table.layout table <> None ->
        (* One kernel call routes the whole pair block, bit-identically
           to the loop below ([--no-batch] pins this via stdout
           byte-identity). Churn's row tables are neither blocks nor
           rules, so they keep the loop. *)
        let s = Routing.Route_batch.sample_and_route table ~rng ~alive ~survivors ~pairs in
        {
          delivered = Routing.Route_batch.delivered_count s;
          attempted = pairs;
          alive_fraction;
          hop_counts = Routing.Route_batch.hop_counts s;
        }
    | Some _ | None ->
        let delivered = ref 0 in
        let hop_counts = ref [||] in
        for _ = 1 to pairs do
          let i, j = Stats.Sampler.ordered_indexes rng count in
          match route (Overlay.Rank.select survivors i) (Overlay.Rank.select survivors j) with
          | Routing.Outcome.Delivered { hops } ->
              incr delivered;
              hop_counts := count_hop !hop_counts hops
          | Routing.Outcome.Dropped _ -> ()
        done;
        { delivered = !delivered; attempted = pairs; alive_fraction; hop_counts = !hop_counts }

let routability trials =
  let delivered, attempted =
    List.fold_left (fun (d, a) t -> (d + t.delivered, a + t.attempted)) (0, 0) trials
  in
  if attempted = 0 then Float.nan else float_of_int delivered /. float_of_int attempted

let seeds ~seed ~trials =
  let master = Prng.Splitmix.create ~seed in
  Array.init trials (fun _ -> Prng.Splitmix.next_int64 master)

(* Cached builds are traced inside [Table_cache.get]; the uncached path
   emits the same [overlay/build] span here. *)
let table ?cache ~bits geometry seed =
  match cache with
  | None ->
      Obs.Trace.span "overlay/build"
        ~attrs:
          (if Obs.Trace.enabled () then
             [
               ("geometry", Obs.Trace.String (Rcm.Geometry.slug geometry));
               ("bits", Obs.Trace.Int bits);
             ]
           else [])
        (fun () ->
          let rng = Prng.Splitmix.of_int64 seed in
          (Overlay.Table.build ~rng ~bits geometry, rng))
  | Some cache ->
      let table, resume = Overlay.Table_cache.get cache ~bits ~build_seed:seed geometry in
      (table, Prng.Splitmix.of_int64 resume)

let repeat ~seed ~trials f =
  Array.to_list (Array.map (fun s -> f (Prng.Splitmix.of_int64 s)) (seeds ~seed ~trials))
