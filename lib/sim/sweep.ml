type ('c, 'p) codec = {
  kind : string;
  key : 'c -> seed:int -> Checkpoint.fields;
  encode : 'p -> Checkpoint.fields;
  decode : 'c -> Checkpoint.fields -> 'p;
}

type 'a store = {
  checkpoint : Checkpoint.t;
  kind : string;
  find : int -> 'a Exec.Pool.outcome option;
  record : int -> 'a Exec.Pool.outcome -> unit;
}

(* One progress group per run of equal names in task order. *)
let groups names =
  List.fold_right
    (fun name acc ->
      match acc with
      | (prev, count) :: rest when prev = name -> (prev, count + 1) :: rest
      | _ -> (name, 1) :: acc)
    names []

let run ?pool ?(retries = 0) ?fault ?store ~label ~group n task =
  if retries < 0 then invalid_arg "Sim.Sweep.run: negative retries";
  (* Decoded up front, so a corrupt record fails before any task runs. *)
  let stored = Array.init n (fun i -> Option.bind store (fun s -> s.find i)) in
  let kind = match store with Some s -> s.kind | None -> "" in
  let names = Array.init n group in
  Obs.Progress.start ~label ~groups:(groups (Array.to_list names)) ~total:n ();
  let tick i = Obs.Progress.tick ~group:names.(i) () in
  let run_one i =
    match stored.(i) with
    | Some outcome ->
        if Obs.Trace.enabled () then
          Obs.Trace.event "checkpoint/replay"
            ~attrs:[ ("kind", Obs.Trace.String kind); ("task", Obs.Trace.Int i) ]
            ();
        tick i;
        outcome
    | None ->
        let attempt ~attempt i =
          Exec.Fault.inject fault ~task:i ~attempt;
          task i
        in
        let outcome = Exec.Pool.supervised ~retries ~task:attempt i in
        (match outcome with
        | Exec.Pool.Done _ | Exec.Pool.Failed _ ->
            Option.iter (fun s -> s.record i outcome) store;
            tick i
        | Exec.Pool.Cancelled -> () (* not completed: keep the count honest *));
        outcome
  in
  let outcomes =
    match pool with
    | Some pool when Exec.Pool.size pool > 1 -> Exec.Pool.map pool n run_one
    | Some _ | None -> Array.init n run_one
  in
  Option.iter (fun s -> Checkpoint.flush s.checkpoint) store;
  (* Erase the live line before anything prints results, also on the
     cancelled unwind below. *)
  Obs.Progress.finish ();
  if Array.exists (function Exec.Pool.Cancelled -> true | _ -> false) outcomes then
    (* Completed tasks are safe in the checkpoint (flushed above);
       partial results would be misleading, so unwind. *)
    raise Exec.Cancel.Cancelled;
  outcomes

(* A task that exhausted its retries aborts: each value is a statistic
   of its own, with no partial sample to salvage. *)
let values ~label ~describe outcomes =
  Array.mapi
    (fun k -> function
      | Exec.Pool.Done v -> v
      | Exec.Pool.Failed { attempts; error } ->
          failwith
            (Printf.sprintf "%s point %s failed after %d attempts: %s" label (describe k)
               attempts error)
      | Exec.Pool.Cancelled -> assert false (* [run] raised *))
    outcomes

(* Masked to 48 bits because the seed is part of the checkpoint key and
   must round-trip exactly through a JSON number. *)
let point_seeds ~seed n =
  Array.map (fun s -> Int64.to_int s land 0xFFFF_FFFF_FFFF) (Trial.seeds ~seed ~trials:n)

let points ?pool ?retries ?fault ?checkpoint ~label ~group ~describe ~seed coords point =
  let coords = Array.of_list coords in
  let seeds = point_seeds ~seed (Array.length coords) in
  let store =
    Option.map
      (fun (ck, codec) ->
        let key i = codec.key coords.(i) ~seed:seeds.(i) in
        {
          checkpoint = ck;
          kind = codec.kind;
          find =
            (fun i ->
              Checkpoint.find_point ck ~kind:codec.kind ~key:(key i)
                ~decode:(codec.decode coords.(i))
              |> Option.map (fun p -> Exec.Pool.Done p));
          record =
            (fun i -> function
              | Exec.Pool.Done p ->
                  Checkpoint.record_point ck ~kind:codec.kind ~key:(key i) (codec.encode p)
              | Exec.Pool.Failed _ | Exec.Pool.Cancelled -> ());
        })
      checkpoint
  in
  run ?pool ?retries ?fault ?store ~label
    ~group:(fun i -> group coords.(i))
    (Array.length coords)
    (fun i -> point coords.(i) ~seed:seeds.(i))
  |> values ~label ~describe:(fun i -> Printf.sprintf "%d (%s)" i (describe coords.(i)))
  |> Array.to_list

let grid ?pool ~label ~name ~seed ~trials points f =
  let seeds = Trial.seeds ~seed ~trials in
  let points = Array.of_list points in
  let point k = points.(k / trials) in
  let results =
    run ?pool ~label
      ~group:(fun k -> name (point k))
      (Array.length points * trials)
      (fun k -> f (point k) seeds.(k mod trials))
    |> values ~label ~describe:(fun k ->
           Printf.sprintf "%d (%s, trial %d)" (k / trials) (name (point k)) (k mod trials))
  in
  List.init (Array.length points) (fun p -> List.init trials (fun i -> results.((p * trials) + i)))
