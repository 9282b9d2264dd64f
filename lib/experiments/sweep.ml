type ('c, 'p) codec = {
  kind : string;
  key : 'c -> seed:int -> Sim.Checkpoint.fields;
  encode : 'p -> Sim.Checkpoint.fields;
  decode : 'c -> Sim.Checkpoint.fields -> 'p;
}

(* Per-point PRNG discipline, exactly {!Sim.Trial.seeds}: point i runs
   on a seed derived by index from one master stream, so points execute
   on any domain in any order and still draw the same values. Masked to
   48 bits because the seed is part of the checkpoint key and must
   round-trip exactly through a JSON number. *)
let point_seeds ~seed n =
  Array.map
    (fun s -> Int64.to_int s land 0xFFFF_FFFF_FFFF)
    (Sim.Trial.seeds ~seed ~trials:n)

(* One progress group per run of equal names in grid order. *)
let groups names =
  List.fold_right
    (fun name acc ->
      match acc with
      | (prev, count) :: rest when prev = name -> (prev, count + 1) :: rest
      | _ -> (name, 1) :: acc)
    names []

let run ?pool ?(retries = 0) ?fault ?checkpoint ~label ~group ~describe ~seed grid
    point =
  if retries < 0 then invalid_arg (label ^ ": negative retries");
  let grid = Array.of_list grid in
  let n = Array.length grid in
  let seeds = point_seeds ~seed n in
  let kind, find, record =
    match checkpoint with
    | None -> ("", (fun _ -> None), fun _ _ -> ())
    | Some (ck, codec) ->
        let key i = codec.key grid.(i) ~seed:seeds.(i) in
        ( codec.kind,
          (fun i ->
            Sim.Checkpoint.find_point ck ~kind:codec.kind ~key:(key i)
              ~decode:(codec.decode grid.(i))),
          fun i p ->
            Sim.Checkpoint.record_point ck ~kind:codec.kind ~key:(key i) (codec.encode p) )
  in
  (* Decoded up front, so a corrupt record fails before any point runs. *)
  let stored = Array.init n find in
  let names = Array.map group grid in
  Obs.Progress.start ~label ~groups:(groups (Array.to_list names)) ~total:n ();
  let tick i = Obs.Progress.tick ~group:names.(i) () in
  let run_one i =
    match stored.(i) with
    | Some p ->
        if Obs.Trace.enabled () then
          Obs.Trace.event "checkpoint/replay"
            ~attrs:[ ("kind", Obs.Trace.String kind); ("task", Obs.Trace.Int i) ]
            ();
        tick i;
        Exec.Pool.Done p
    | None ->
        let task ~attempt i =
          Exec.Fault.inject fault ~task:i ~attempt;
          point grid.(i) ~seed:seeds.(i)
        in
        let outcome = Exec.Pool.supervised ~retries ~task i in
        (match outcome with
        | Exec.Pool.Done p ->
            record i p;
            tick i
        | Exec.Pool.Failed _ -> tick i
        | Exec.Pool.Cancelled -> ());
        outcome
  in
  let outcomes =
    match pool with
    | Some pool when Exec.Pool.size pool > 1 -> Exec.Pool.map pool n run_one
    | Some _ | None -> Array.init n run_one
  in
  Option.iter (fun (ck, _) -> Sim.Checkpoint.flush ck) checkpoint;
  Obs.Progress.finish ();
  if Array.exists (function Exec.Pool.Cancelled -> true | _ -> false) outcomes then
    raise Exec.Cancel.Cancelled;
  (* A point that exhausted its retries aborts the sweep: unlike the
     trial-level estimator there is no partial statistic to salvage —
     each point is the statistic. *)
  List.init n (fun i ->
      match outcomes.(i) with
      | Exec.Pool.Done p -> p
      | Exec.Pool.Failed { attempts; error } ->
          failwith
            (Printf.sprintf "%s point %d (%s) failed after %d attempts: %s" label i
               (describe grid.(i)) attempts error)
      | Exec.Pool.Cancelled -> assert false)
