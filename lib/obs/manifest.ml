type value = String of string | Int of int | Float of float | Bool of bool | Strings of string list

let version = 1

type state = {
  path : string;
  argv : string list;
  cwd : string;
  started : float;
  hostname : string;
  mutable notes : (string * value) list;  (* reversed insertion order *)
  mutable artefacts : (string * string) list;  (* (kind, path), reversed *)
}

let lock = Mutex.create ()

let current : state option ref = ref None

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start ~argv ~path =
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  with_lock (fun () ->
      current :=
        Some
          {
            path;
            argv;
            cwd = Sys.getcwd ();
            started = Unix.gettimeofday ();
            hostname;
            notes = [];
            artefacts = [];
          })

let note key v =
  with_lock (fun () ->
      match !current with
      | None -> ()
      | Some m -> m.notes <- (key, v) :: List.remove_assoc key m.notes)

let add_artefact ~kind path =
  with_lock (fun () ->
      match !current with
      | None -> ()
      | Some m ->
          if not (List.exists (fun (_, p) -> p = path) m.artefacts) then
            m.artefacts <- (kind, path) :: m.artefacts)

(* --- rendering ------------------------------------------------------------- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.6f" v else "null"

let add_value buffer = function
  | String s -> Tiny_json.add_escaped buffer s
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f -> Buffer.add_string buffer (json_float f)
  | Bool b -> Buffer.add_string buffer (string_of_bool b)
  | Strings l ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_string buffer ", ";
          Tiny_json.add_escaped buffer s)
        l;
      Buffer.add_char buffer ']'

let add_artefact_json buffer (kind, path) =
  Buffer.add_string buffer "    {\"kind\": ";
  Tiny_json.add_escaped buffer kind;
  Buffer.add_string buffer ", \"path\": ";
  Tiny_json.add_escaped buffer path;
  if Sys.file_exists path then begin
    let bytes = (Unix.stat path).Unix.st_size in
    (* MD5 from the stdlib [Digest]: not cryptographic, but exactly
       enough to prove an artefact on disk is the one this run wrote. *)
    let md5 = Digest.to_hex (Digest.file path) in
    Buffer.add_string buffer (Printf.sprintf ", \"exists\": true, \"bytes\": %d, \"md5\": " bytes);
    Tiny_json.add_escaped buffer md5
  end
  else Buffer.add_string buffer ", \"exists\": false";
  Buffer.add_char buffer '}'

let render m ~finished ~exit_status ~peak_rss_kb =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer
    (Printf.sprintf "{\n  \"v\": %d,\n  \"kind\": \"dht_rcm-manifest\",\n  \"argv\": " version);
  add_value buffer (Strings m.argv);
  Buffer.add_string buffer ",\n  \"cwd\": ";
  Tiny_json.add_escaped buffer m.cwd;
  Buffer.add_string buffer ",\n  \"hostname\": ";
  Tiny_json.add_escaped buffer m.hostname;
  Buffer.add_string buffer ",\n  \"ocaml_version\": ";
  Tiny_json.add_escaped buffer Sys.ocaml_version;
  Buffer.add_string buffer
    (Printf.sprintf ",\n  \"started\": %.6f,\n  \"finished\": %.6f,\n  \"wall_s\": %s,\n  \"exit_status\": %d"
       m.started finished
       (json_float (finished -. m.started))
       exit_status);
  Option.iter
    (fun kb -> Buffer.add_string buffer (Printf.sprintf ",\n  \"peak_rss_kb\": %d" kb))
    peak_rss_kb;
  Buffer.add_string buffer ",\n  \"notes\": {";
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string buffer ", ";
      Tiny_json.add_escaped buffer key;
      Buffer.add_string buffer ": ";
      add_value buffer v)
    (List.rev m.notes);
  Buffer.add_string buffer "},\n  \"artefacts\": [";
  let artefacts = List.rev m.artefacts in
  List.iteri
    (fun i artefact ->
      Buffer.add_string buffer (if i > 0 then ",\n" else "\n");
      add_artefact_json buffer artefact)
    artefacts;
  Buffer.add_string buffer (if artefacts = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buffer

let finish ~exit_status =
  let m =
    with_lock (fun () ->
        let m = !current in
        current := None;
        m)
  in
  match m with
  | None -> ()
  | Some m ->
      let body =
        render m ~finished:(Unix.gettimeofday ()) ~exit_status ~peak_rss_kb:(Rss.peak_kb ())
      in
      Atomic_file.write m.path (fun oc -> output_string oc body)
