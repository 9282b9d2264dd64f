type t =
  | Tree
  | Hypercube
  | Xor
  | Ring
  | Symphony of { k_n : int; k_s : int }
  | Record of { h : int }

let default_symphony = Symphony { k_n = 1; k_s = 1 }

let all_default = [ Tree; Hypercube; Xor; Ring; default_symphony ]

let all = all_default @ [ Record { h = 2 } ]

let name = function
  | Tree -> "tree"
  | Hypercube -> "hypercube"
  | Xor -> "xor"
  | Ring -> "ring"
  | Symphony _ -> "symphony"
  | Record _ -> "record"

(* Parameter-qualified identifier, used wherever distinct
   parameterisations must not collide (checkpoint keys, CSV/JSON
   labels, metric names). The paper's geometries keep their bare
   [name] — their sweeps never vary parameters under one key, and
   existing checkpoint streams must keep resuming byte-identically. *)
let slug = function
  | (Tree | Hypercube | Xor | Ring | Symphony _) as g -> name g
  | Record { h } -> Printf.sprintf "record:h=%d" h

let system = function
  | Tree -> "Plaxton"
  | Hypercube -> "CAN"
  | Xor -> "Kademlia"
  | Ring -> "Chord"
  | Symphony _ -> "Symphony"
  | Record _ -> "ReCord"

(* ReCord reads identifiers as base-h digits of log2 h bits each. *)
let check_h h =
  if h < 2 || h > 1024 then Error "h must be in 2..1024"
  else if h land (h - 1) <> 0 then Error "h must be a power of two"
  else Ok ()

let check_params ~bits g =
  match g with
  | Tree | Hypercube | Xor | Ring | Symphony _ -> Ok ()
  | Record { h } -> (
      match check_h h with
      | Error e -> Error (Printf.sprintf "%s: %s" (slug g) e)
      | Ok () ->
          let group = Idspace.Id.floor_log2 h in
          if bits mod group = 0 then Ok ()
          else
            Error
              (Printf.sprintf "%s: h=%d needs digit width %d to divide bits=%d" (slug g) h
                 group bits))

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
      | Tree | Xor | Ring | Record _ -> check_params ~bits g
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
  | Record { h } ->
      Printf.sprintf "ReCord: base-h recursive-ring digit routing (randomized Chord family) (h=%d)" h

(* The slug grammar: a name or alias, and for record (alias rechord)
   optional ":key=value" parameters, so slugs written into checkpoints
   and CSVs parse back to the geometry that wrote them. A value is a
   decimal integer, optionally negative; every parameter is parsed
   before any is checked. *)
let parse_param part =
  let malformed () =
    Error (Printf.sprintf "geometry parameter %S is not of the form key=int" part)
  in
  match String.index_opt part '=' with
  | None -> malformed ()
  | Some i -> (
      let value = String.sub part (i + 1) (String.length part - i - 1) in
      let digits =
        if String.starts_with ~prefix:"-" value then
          String.sub value 1 (String.length value - 1)
        else value
      in
      let decimal = digits <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) digits in
      match if decimal then int_of_string_opt value else None with
      | Some v -> Ok (String.sub part 0 i, v)
      | None -> malformed ())

let rec parse_params = function
  | [] -> Ok []
  | part :: rest -> (
      match parse_param part with
      | Error _ as e -> e
      | Ok kv -> Result.map (fun kvs -> kv :: kvs) (parse_params rest))

let record_of_params params =
  match List.find_opt (fun (k, _) -> k <> "h") params with
  | Some (k, _) -> Error (Printf.sprintf "geometry record has no parameter %S (valid: h)" k)
  | None -> (
      match params with
      | _ :: _ :: _ -> Error "geometry record: parameter \"h\" is given more than once"
      | [] -> Ok (Record { h = 2 })
      | [ (_, h) ] -> (
          match check_h h with
          | Ok () -> Ok (Record { h })
          | Error e -> Error ("geometry record: " ^ e)))

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let builtin = function
    | "tree" | "plaxton" -> Some Tree
    | "hypercube" | "can" -> Some Hypercube
    | "xor" | "kademlia" -> Some Xor
    | "ring" | "chord" -> Some Ring
    | "symphony" | "small-world" | "smallworld" -> Some default_symphony
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [] -> Error (Printf.sprintf "unknown geometry %S" s)
  | name :: parts -> (
      match (builtin name, parts) with
      | Some g, [] -> Ok g
      | Some _, _ :: _ -> Error (Printf.sprintf "geometry %s takes no parameters" name)
      | None, _ -> (
          match (name, parts) with
          | ("record" | "rechord"), _ -> Result.bind (parse_params parts) record_of_params
          | _, [] -> Error (Printf.sprintf "unknown geometry %S" s)
          | _, _ :: _ ->
              Result.bind (parse_params parts) (fun _ ->
                  Error (Printf.sprintf "unknown geometry family %S" name))))

let equal a b =
  match (a, b) with
  | Tree, Tree | Hypercube, Hypercube | Xor, Xor | Ring, Ring -> true
  | Symphony { k_n = n1; k_s = s1 }, Symphony { k_n = n2; k_s = s2 } -> n1 = n2 && s1 = s2
  | Record { h = h1 }, Record { h = h2 } -> h1 = h2
  | (Tree | Hypercube | Xor | Ring | Symphony _ | Record _), _ -> false

let pp ppf g =
  match g with
  | Symphony { k_n; k_s } -> Fmt.pf ppf "symphony(k_n=%d,k_s=%d)" k_n k_s
  | Record { h } -> Fmt.pf ppf "record(h=%d)" h
  | Tree | Hypercube | Xor | Ring -> Fmt.string ppf (name g)
