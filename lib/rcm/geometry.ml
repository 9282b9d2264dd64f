type t =
  | Tree
  | Hypercube
  | Xor
  | Ring
  | Symphony of { k_n : int; k_s : int }
  | Custom of { family : string; params : (string * int) list }

let default_symphony = Symphony { k_n = 1; k_s = 1 }

let all_default = [ Tree; Hypercube; Xor; Ring; default_symphony ]

(* --- custom geometry families ---------------------------------------------

   A family is the parse-time face of a plugged-in geometry: its name,
   aliases, parameter schema and one-line documentation. Everything
   else (table builder, router, closed forms, ...) hangs off the
   family name through the per-layer hook registries; this module only
   owns naming and parsing so that [of_string] — and therefore every
   CLI flag, checkpoint key and test matrix — covers plugins without
   pattern-matching them. Registration happens at module-init time
   (plugin libraries are linked with [-linkall]), before any
   command-line parsing, so the registry is effectively immutable
   afterwards and needs no locking. *)

type family = {
  family_name : string;
  aliases : string list;
  family_system : string;
  summary : string;
  defaults : (string * int) list;
  validate : (string * int) list -> (unit, string) result;
  check_bits : (string * int) list -> bits:int -> (unit, string) result;
}

let builtin_names =
  [
    "tree"; "plaxton"; "hypercube"; "can"; "xor"; "kademlia"; "ring"; "chord";
    "symphony"; "small-world"; "smallworld";
  ]

let families : (string, family) Hashtbl.t = Hashtbl.create 8

let valid_name n =
  String.length n > 0
  && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false) n

let register_family f =
  let names = f.family_name :: f.aliases in
  List.iter
    (fun n ->
      if not (valid_name n) then
        invalid_arg (Printf.sprintf "Geometry.register_family: bad name %S" n);
      if List.mem n builtin_names then
        invalid_arg
          (Printf.sprintf "Geometry.register_family: %S collides with a built-in name" n);
      if Hashtbl.mem families n then
        invalid_arg (Printf.sprintf "Geometry.register_family: %S already registered" n))
    names;
  List.iter (fun n -> Hashtbl.replace families n f) names

let find_family name = Hashtbl.find_opt families (String.lowercase_ascii name)

(* Canonical parameter form: family defaults overridden by the caller's
   pairs, sorted by key — [equal] is structural, so every constructor
   path must normalise identically. *)
let normalize_params f overrides =
  let merged =
    List.map
      (fun (k, dflt) ->
        match List.assoc_opt k overrides with Some v -> (k, v) | None -> (k, dflt))
      f.defaults
  in
  List.sort (fun (a, _) (b, _) -> compare a b) merged

let custom ~family:name params =
  match find_family name with
  | None -> Error (Printf.sprintf "unknown geometry family %S" name)
  | Some f -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem_assoc k f.defaults)) params
      with
      | Some (k, _) ->
          Error
            (Printf.sprintf "geometry %s has no parameter %S (valid: %s)" f.family_name k
               (String.concat ", " (List.map fst f.defaults)))
      | None -> (
          let params = normalize_params f params in
          match f.validate params with
          | Ok () -> Ok (Custom { family = f.family_name; params })
          | Error e -> Error (Printf.sprintf "geometry %s: %s" f.family_name e)))

let name = function
  | Tree -> "tree"
  | Hypercube -> "hypercube"
  | Xor -> "xor"
  | Ring -> "ring"
  | Symphony _ -> "symphony"
  | Custom { family; _ } -> family

(* Parameter-qualified identifier, used wherever distinct
   parameterisations must not collide (checkpoint keys, CSV/JSON
   labels, metric names). Built-ins keep their bare [name] — their
   sweeps never vary parameters under one key, and existing checkpoint
   streams must keep resuming byte-identically. *)
let slug = function
  | (Tree | Hypercube | Xor | Ring | Symphony _) as g -> name g
  | Custom { family; params } ->
      String.concat ":"
        (family :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params)

let system = function
  | Tree -> "Plaxton"
  | Hypercube -> "CAN"
  | Xor -> "Kademlia"
  | Ring -> "Chord"
  | Symphony _ -> "Symphony"
  | Custom { family; _ } -> (
      match find_family family with Some f -> f.family_system | None -> family)

(* The one size rule every overlay builder applies (Table.build,
   Sparse.build) and every sweep command checks before its first
   point. *)
let check_size ?nodes ~bits g =
  let max_bits = Idspace.Space.max_bits in
  if bits < 1 || bits > max_bits then
    Error (Printf.sprintf "bits must be in 1..%d (got %d)" max_bits bits)
  else begin
    let size = 1 lsl bits in
    let n = Option.value nodes ~default:size in
    if n < 2 || n > size then
      Error (Printf.sprintf "nodes must be in 2..2^%d = %d (got %d)" bits size n)
    else
      match g with
      | Tree | Xor | Ring -> Ok ()
      | Hypercube ->
          if nodes = None then Ok ()
          else Error "no sparse hypercube overlay exists (CAN's sparse form is a zone partition)"
      | Symphony { k_n; k_s } ->
          if k_n < 0 || k_s < 1 then
            Error (Printf.sprintf "symphony needs k_s >= 1, k_n >= 0 (got k_n = %d, k_s = %d)" k_n k_s)
          else if k_n + k_s < n then Ok ()
          else
            Error
              (Printf.sprintf "symphony degree k_n + k_s = %d must be below the node count %d"
                 (k_n + k_s) n)
      | Custom { family; params } -> (
          match find_family family with
          | None -> Ok ()
          | Some f -> (
              match f.check_bits params ~bits with
              | Ok () -> Ok ()
              | Error e -> Error (Printf.sprintf "%s: %s" (slug g) e)))
  end

let check_size_exn context ?nodes ~bits g =
  match check_size ?nodes ~bits g with
  | Ok () -> ()
  | Error e -> invalid_arg (context ^ ": " ^ e)

let description g =
  match g with
  | Tree -> "tree (Plaxton): prefix routing, one neighbour per level"
  | Hypercube -> "hypercube (CAN): greedy bit correction in any order"
  | Xor -> "XOR (Kademlia): greedy XOR-metric routing with randomized buckets"
  | Ring -> "ring (Chord): greedy clockwise finger routing"
  | Symphony { k_n; k_s } ->
      Printf.sprintf "small-world (Symphony): %d near neighbour(s), %d shortcut(s)" k_n k_s
  | Custom { family; params } -> (
      match find_family family with
      | Some f ->
          if params = [] then f.summary
          else
            Printf.sprintf "%s (%s)" f.summary
              (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
      | None -> family)

(* "family:key=int:key=int" — the slug grammar, so slugs written into
   checkpoints and CSVs parse back to the geometry that wrote them. *)
let parse_custom s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error (Printf.sprintf "unknown geometry %S" s)
  | name :: param_parts -> (
      let parse_param part =
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "geometry parameter %S is not of the form key=int" part)
        | Some i -> (
            let key = String.sub part 0 i in
            let value = String.sub part (i + 1) (String.length part - i - 1) in
            match int_of_string_opt value with
            | Some v -> Ok (key, v)
            | None ->
                Error (Printf.sprintf "geometry parameter %S is not of the form key=int" part))
      in
      let rec parse_all = function
        | [] -> Ok []
        | p :: rest -> (
            match parse_param p with
            | Error _ as e -> e
            | Ok kv -> ( match parse_all rest with Ok l -> Ok (kv :: l) | Error _ as e -> e))
      in
      match parse_all param_parts with
      | Error _ as e -> e
      | Ok params -> custom ~family:name params)

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "tree" | "plaxton" -> Ok Tree
  | "hypercube" | "can" -> Ok Hypercube
  | "xor" | "kademlia" -> Ok Xor
  | "ring" | "chord" -> Ok Ring
  | "symphony" | "small-world" | "smallworld" -> Ok default_symphony
  | other ->
      if Hashtbl.mem families other || String.contains other ':' then parse_custom other
      else Error (Printf.sprintf "unknown geometry %S" other)

let equal a b =
  match (a, b) with
  | Tree, Tree | Hypercube, Hypercube | Xor, Xor | Ring, Ring -> true
  | Symphony { k_n = n1; k_s = s1 }, Symphony { k_n = n2; k_s = s2 } -> n1 = n2 && s1 = s2
  | Custom { family = f1; params = p1 }, Custom { family = f2; params = p2 } ->
      String.equal f1 f2 && p1 = p2
  | (Tree | Hypercube | Xor | Ring | Symphony _ | Custom _), _ -> false

let pp ppf g =
  match g with
  | Symphony { k_n; k_s } -> Fmt.pf ppf "symphony(k_n=%d,k_s=%d)" k_n k_s
  | Custom { family; params } ->
      if params = [] then Fmt.string ppf family
      else
        Fmt.pf ppf "%s(%s)" family
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
  | Tree | Hypercube | Xor | Ring -> Fmt.string ppf (name g)
