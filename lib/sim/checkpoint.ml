module Json = Obs.Tiny_json

let version = 2

type key = {
  geometry : string;
  bits : int;
  q : float;
  pairs : int;
  seed : int;
  trial : int;
}

type trial = {
  delivered : int;
  attempted : int;
  alive_fraction : float;
  hop_counts : int array;
}

type outcome = Trial of trial | Failed of { attempts : int; error : string }

type fields = (string * Json.t) list

(* Point records live in one map ordered by (kind, fields). Key fields
   come first in a record, so the least record not below (kind, key) is
   the one that key names, if any: a list sorts just before every list
   that extends it, and anything between the two extends it too. The
   map's order is also the file's order. The value is the line the
   record was read from (0 when this process recorded it). *)
module Points = Map.Make (struct
  type t = string * fields

  let compare = compare
end)

type t = {
  path : string;
  interval : int;
  lock : Mutex.t;
  trials : (key, outcome) Hashtbl.t;
  mutable points : int Points.t;
  mutable unflushed : int;
}

let path t = t.path

let header_kind = "dht_rcm-checkpoint"

(* --- fields ---------------------------------------------------------------- *)

(* A JSON number is a double: integers round-trip exactly only within
   ±(2^53 - 1). *)
let max_exact = (1 lsl 53) - 1

let exact_int i = i >= -max_exact && i <= max_exact

let int i =
  if not (exact_int i) then
    invalid_arg
      (Printf.sprintf "Sim.Checkpoint: %d is outside +-(2^53 - 1) and would not round-trip" i);
  Json.Num (float_of_int i)

let field conv what fields name =
  match List.assoc_opt name fields with
  | None -> failwith (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> x
      | None -> failwith (Printf.sprintf "field %S: expected %s" name what))

let get_int = field Json.to_int "an integer"
let get_float = field Json.to_num "a number"
let get_string = field Json.to_str "a string"

let get_ints =
  field
    (function
      | Json.Arr items when List.for_all (fun v -> Json.to_int v <> None) items ->
          Some (List.filter_map Json.to_int items)
      | _ -> None)
    "an integer array"

(* A delivered route visits distinct nodes, so its hop count is below
   the key's node count 2^bits. *)
let below_node_count ~bits h = bits >= 62 || (bits >= 0 && h < 1 lsl bits)

(* The canonical histogram of a version-1 record's per-delivery hop
   list, and that list's checks: one hop per delivery, each within
   [0, 2^bits) (which also bounds the array this allocates). *)
let hop_counts_of_v1 ~bits ~delivered hops =
  if List.length hops <> delivered then
    failwith
      (Printf.sprintf "field \"hops\": %d hops for %d deliveries" (List.length hops) delivered);
  List.iter
    (fun h ->
      if h < 0 || not (below_node_count ~bits h) then
        failwith (Printf.sprintf "field \"hops\": hop %d outside [0, 2^%d)" h bits))
    hops;
  let counts = Array.make (List.fold_left (fun m h -> max m (h + 1)) 0 hops) 0 in
  List.iter (fun h -> counts.(h) <- counts.(h) + 1) hops;
  counts

(* --- the printer ----------------------------------------------------------- *)

(* Every line goes through here. %.17g round-trips every finite double
   exactly through [float_of_string], so stored keys compare bit-equal
   after a reload and replayed values are the computed ones. A
   non-finite number has no JSON spelling: an object field holding one
   is left out. *)
let rec add_value buffer = function
  | Json.Null -> Buffer.add_string buffer "null"
  | Json.Bool b -> Buffer.add_string buffer (string_of_bool b)
  | Json.Num v ->
      if not (Float.is_finite v) then invalid_arg "Sim.Checkpoint: non-finite array item";
      Buffer.add_string buffer (Printf.sprintf "%.17g" v)
  | Json.Str s -> Json.add_escaped buffer s
  | Json.Arr items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buffer ',';
          add_value buffer v)
        items;
      Buffer.add_char buffer ']'
  | Json.Obj fields ->
      Buffer.add_char buffer '{';
      List.filter (function _, Json.Num v -> Float.is_finite v | _ -> true) fields
      |> List.iteri (fun i (name, v) ->
             if i > 0 then Buffer.add_string buffer ", ";
             Json.add_escaped buffer name;
             Buffer.add_string buffer ": ";
             add_value buffer v);
      Buffer.add_char buffer '}'

(* --- estimate trial records ------------------------------------------------- *)

let trial_fields key outcome =
  [
    ("geometry", Json.Str key.geometry);
    ("bits", int key.bits);
    ("q", Json.Num key.q);
    ("pairs", int key.pairs);
    ("seed", int key.seed);
    ("trial", int key.trial);
  ]
  @
  match outcome with
  | Trial t ->
      [
        ("status", Json.Str "ok");
        ("delivered", int t.delivered);
        ("attempted", int t.attempted);
        ("alive_fraction", Json.Num t.alive_fraction);
        ("hop_counts", Json.Arr (Array.to_list (Array.map int t.hop_counts)));
      ]
  | Failed { attempts; error } ->
      [ ("status", Json.Str "failed"); ("attempts", int attempts); ("error", Json.Str error) ]

(* A stored trial must be one [Trial.run] can return for its key, or a
   resume would report numbers no run produced: [attempted] is 0 (too
   few survivors) or the key's pairs, the deliveries lie within it,
   and the hop histogram counts exactly the deliveries. A histogram
   never ends in a zero count. *)
let check_trial key t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if t.attempted <> 0 && t.attempted <> key.pairs then
    fail "attempted %d is neither 0 nor the key's %d pairs" t.attempted key.pairs;
  if t.delivered < 0 || t.delivered > t.attempted then
    fail "delivered %d outside [0, attempted %d]" t.delivered t.attempted;
  if not (t.alive_fraction >= 0. && t.alive_fraction <= 1.) then
    fail "alive_fraction %.17g outside [0, 1]" t.alive_fraction;
  let n = Array.length t.hop_counts in
  if n > 0 && t.hop_counts.(n - 1) = 0 then fail "field \"hop_counts\": ends in a zero count";
  if n > 0 && not (below_node_count ~bits:key.bits (n - 1)) then
    fail "field \"hop_counts\": hop %d outside [0, 2^%d)" (n - 1) key.bits;
  (* Counts are checked one by one against [delivered], so their sum
     cannot overflow on the way. *)
  let total =
    Array.fold_left
      (fun total c ->
        if c < 0 then fail "field \"hop_counts\": negative count %d" c;
        if c > t.delivered - total then
          fail "field \"hop_counts\": counts exceed delivered %d" t.delivered;
        total + c)
      0 t.hop_counts
  in
  if total <> t.delivered then
    fail "field \"hop_counts\": counts sum to %d, not delivered %d" total t.delivered;
  t

let trial_of_fields ~v fields =
  let key =
    {
      geometry = get_string fields "geometry";
      bits = get_int fields "bits";
      q = get_float fields "q";
      pairs = get_int fields "pairs";
      seed = get_int fields "seed";
      trial = get_int fields "trial";
    }
  in
  let outcome =
    match get_string fields "status" with
    | "ok" ->
        let delivered = get_int fields "delivered" in
        let hop_counts =
          if v = 1 then hop_counts_of_v1 ~bits:key.bits ~delivered (get_ints fields "hops")
          else Array.of_list (get_ints fields "hop_counts")
        in
        Trial
          (check_trial key
             {
               delivered;
               attempted = get_int fields "attempted";
               alive_fraction = get_float fields "alive_fraction";
               hop_counts;
             })
    | "failed" ->
        Failed { attempts = get_int fields "attempts"; error = get_string fields "error" }
    | other -> failwith (Printf.sprintf "unknown status %S" other)
  in
  (key, outcome)

(* Trials are written in key order so two checkpoints of the same
   completed work are byte-identical regardless of the (hash-table,
   domain-scheduling) order in which trials were recorded. *)
let compare_keys a b =
  let c = compare a.geometry b.geometry in
  if c <> 0 then c
  else
    let c = compare (a.bits, a.pairs, a.seed) (b.bits, b.pairs, b.seed) in
    if c <> 0 then c
    else
      let c = compare a.q b.q in
      if c <> 0 then c else compare a.trial b.trial

(* --- store ----------------------------------------------------------------- *)

let write_locked t =
  let trials =
    Hashtbl.fold (fun key outcome acc -> (key, outcome) :: acc) t.trials []
    |> List.sort (fun (a, _) (b, _) -> compare_keys a b)
  in
  Obs.Atomic_file.write t.path (fun oc ->
      let buffer = Buffer.create 256 in
      let line fields =
        Buffer.clear buffer;
        add_value buffer (Json.Obj (("v", int version) :: fields));
        Buffer.add_char buffer '\n';
        Buffer.output_buffer oc buffer
      in
      line [ ("kind", Json.Str header_kind) ];
      List.iter (fun (key, outcome) -> line (trial_fields key outcome)) trials;
      Points.iter
        (fun (kind, fields) _ -> line (("kind", Json.Str kind) :: fields))
        t.points);
  t.unflushed <- 0

let make ~interval ~path =
  if interval < 1 then invalid_arg "Sim.Checkpoint: interval must be >= 1";
  {
    path;
    interval;
    lock = Mutex.create ();
    trials = Hashtbl.create 64;
    points = Points.empty;
    unflushed = 0;
  }

let create ?(interval = 8) ~path () = make ~interval ~path

let read_file path =
  let ic = try open_in_bin path with Sys_error msg -> failwith msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try In_channel.input_all ic with Sys_error msg -> failwith (path ^ ": " ^ msg))

let add_line t ~line text =
  match Json.parse text with
  | Json.Obj fields -> (
      let v = get_int fields "v" in
      if v < 1 || v > version then
        failwith (Printf.sprintf "unsupported checkpoint version %d (expected 1 to %d)" v version);
      let fields = List.remove_assoc "v" fields in
      match List.assoc_opt "kind" fields with
      | None ->
          let key, outcome = trial_of_fields ~v fields in
          Hashtbl.replace t.trials key outcome
      | Some (Json.Str kind) when kind = header_kind -> ()
      | Some (Json.Str kind) ->
          t.points <- Points.add (kind, List.remove_assoc "kind" fields) line t.points
      | Some _ -> failwith "field \"kind\": expected a string")
  | _ -> failwith "expected a JSON object"

let load ?(interval = 8) ~path () =
  let t = make ~interval ~path in
  if Sys.file_exists path then
    List.iteri
      (fun i text ->
        if String.trim text <> "" then
          try add_line t ~line:(i + 1) text
          with Failure msg | Json.Error msg ->
            failwith (Printf.sprintf "%s, line %d: %s" path (i + 1) msg))
      (String.split_on_char '\n' (read_file path));
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump_locked t =
  t.unflushed <- t.unflushed + 1;
  if t.unflushed >= t.interval then write_locked t

let find t key = locked t (fun () -> Hashtbl.find_opt t.trials key)

let record t key outcome =
  locked t (fun () ->
      Hashtbl.replace t.trials key outcome;
      bump_locked t)

let rec is_prefix key fields =
  match (key, fields) with
  | [], _ -> true
  | k :: key, f :: fields -> compare k f = 0 && is_prefix key fields
  | _ :: _, [] -> false

let find_locked t kind key =
  match Points.find_first_opt (fun r -> compare r (kind, key) >= 0) t.points with
  | Some (((k, fields) as record), line) when k = kind && is_prefix key fields ->
      Some (record, line)
  | Some _ | None -> None

let find_point t ~kind ~key ~decode =
  match locked t (fun () -> find_locked t kind key) with
  | None -> None
  | Some ((_, fields), line) -> (
      let n = List.length key in
      match decode (List.filteri (fun i _ -> i >= n) fields) with
      | value -> Some value
      | exception Failure msg -> failwith (Printf.sprintf "%s, line %d: %s" t.path line msg))

let record_point t ~kind ~key value =
  locked t (fun () ->
      let points =
        match find_locked t kind key with
        | Some (record, _) -> Points.remove record t.points
        | None -> t.points
      in
      t.points <- Points.add (kind, key @ value) 0 points;
      bump_locked t)

let length t = locked t (fun () -> Hashtbl.length t.trials + Points.cardinal t.points)

let flush t = locked t (fun () -> write_locked t)
