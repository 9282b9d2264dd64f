(* Schema checks for the JSON artefacts dhtlab writes:

     validate.exe --manifest FILE   provenance manifest (dhtlab --manifest /
                                    dhtlab export): schema plus recomputing
                                    the MD5 of every artefact still on disk
     validate.exe --metrics FILE    metrics snapshot (dhtlab --metrics-out)

   Exits non-zero with a message naming the first problem. Parsing is
   Obs.Tiny_json — real JSON, so a truncated or hand-edited file fails
   loudly instead of being half-read. *)

open Obs.Tiny_json

exception Check_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_error s)) fmt

(* --- schema helpers -------------------------------------------------------- *)

let field path obj key =
  match member key obj with
  | Some v -> v
  | None -> (
      match obj with
      | Obj _ -> fail "%s: missing field %S" path key
      | _ -> fail "%s: expected an object" path)

let as_number path v =
  match to_num v with Some n -> n | None -> fail "%s: expected a number" path

let as_int path v =
  match to_int v with Some n -> n | None -> fail "%s: expected an integer" path

let as_string path v =
  match to_str v with Some s -> s | None -> fail "%s: expected a string" path

let as_obj_fields path v =
  match to_obj v with Some fields -> fields | None -> fail "%s: expected an object" path

let as_list path v =
  match to_list v with Some items -> items | None -> fail "%s: expected an array" path

let check_finite path v = if not (Float.is_finite v) then fail "%s: not finite" path

(* --- metrics snapshot (--metrics-out) ---------------------------------------- *)

(* Counters are integers; histograms carry count plus the summary
   stats, each a number or null (the JSON spelling of nan/inf and of
   an empty histogram's stats). *)
let validate_metrics json =
  let counters = as_obj_fields "$.counters" (field "$" json "counters") in
  List.iter
    (fun (name, v) ->
      match to_int v with
      | Some _ -> ()
      | None -> fail "$.counters[%S]: expected an integer" name)
    counters;
  let histograms = as_obj_fields "$.histograms" (field "$" json "histograms") in
  List.iter
    (fun (name, h) ->
      let hpath = Printf.sprintf "$.histograms[%S]" name in
      let count = as_int (hpath ^ ".count") (field hpath h "count") in
      if count < 0 then fail "%s.count: negative" hpath;
      List.iter
        (fun key ->
          match field hpath h key with
          | Num _ | Null -> ()
          | _ -> fail "%s.%s: expected a number or null" hpath key)
        [ "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99" ])
    histograms;
  Printf.sprintf "%d counters, %d histograms" (List.length counters) (List.length histograms)

(* --- provenance manifest (--manifest) --------------------------------------- *)

(* Hex MD5 of a file's current bytes, as Obs.Manifest records it. *)
let md5_hex path = Digest.to_hex (Digest.file path)

let validate_manifest json =
  if as_int "$.v" (field "$" json "v") <> 1 then fail "$.v: expected manifest version 1";
  if as_string "$.kind" (field "$" json "kind") <> "dht_rcm-manifest" then
    fail "$.kind: expected \"dht_rcm-manifest\"";
  (match as_list "$.argv" (field "$" json "argv") with
  | [] -> fail "$.argv: empty"
  | argv -> List.iteri (fun i v -> ignore (as_string (Printf.sprintf "$.argv[%d]" i) v)) argv);
  let cwd = as_string "$.cwd" (field "$" json "cwd") in
  ignore (as_string "$.hostname" (field "$" json "hostname"));
  ignore (as_string "$.ocaml_version" (field "$" json "ocaml_version"));
  let started = as_number "$.started" (field "$" json "started") in
  let finished = as_number "$.finished" (field "$" json "finished") in
  let wall = as_number "$.wall_s" (field "$" json "wall_s") in
  check_finite "$.started" started;
  check_finite "$.finished" finished;
  if finished < started then fail "$.finished: before $.started";
  if wall < 0.0 then fail "$.wall_s: negative";
  ignore (as_int "$.exit_status" (field "$" json "exit_status"));
  ignore (as_obj_fields "$.notes" (field "$" json "notes"));
  let artefacts = as_list "$.artefacts" (field "$" json "artefacts") in
  (* Re-checksum every artefact the manifest claims exists. Paths are
     as the run recorded them, so a relative one resolves against the
     directory the run started in, not the manifest's own. *)
  let checked =
    List.mapi
      (fun i entry ->
        let path = Printf.sprintf "$.artefacts[%d]" i in
        ignore (as_string (path ^ ".kind") (field path entry "kind"));
        let file = as_string (path ^ ".path") (field path entry "path") in
        let resolved = if Filename.is_relative file then Filename.concat cwd file else file in
        match field path entry "exists" with
        | Bool false -> 0
        | Bool true ->
            let bytes = as_int (path ^ ".bytes") (field path entry "bytes") in
            let recorded = as_string (path ^ ".md5") (field path entry "md5") in
            if not (Sys.file_exists resolved) then
              fail "%s: %s recorded as existing but missing on disk" path file;
            let actual_bytes = (Unix.stat resolved).Unix.st_size in
            if actual_bytes <> bytes then
              fail "%s: %s is %d bytes, manifest records %d" path file actual_bytes bytes;
            let actual = md5_hex resolved in
            if not (String.equal actual recorded) then
              fail "%s: %s checksum %s does not match recorded %s" path file actual recorded;
            1
        | _ -> fail "%s.exists: expected a boolean" path)
      artefacts
  in
  Printf.sprintf "%d artefacts (%d checksummed)" (List.length artefacts)
    (List.fold_left ( + ) 0 checked)

(* --- entry point ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      (* An empty file is what a non-atomic writer leaves behind when
         killed between open and write; name that case instead of the
         generic parse error. *)
      if n = 0 then fail "empty file (truncated or interrupted write?)";
      really_input_string ic n)

let usage () =
  prerr_endline "usage: validate.exe (--manifest FILE | --metrics FILE)";
  exit 2

let () =
  let mode, path =
    match Array.to_list Sys.argv with
    | [ _; "--manifest"; file ] -> (`Manifest, file)
    | [ _; "--metrics"; file ] -> (`Metrics, file)
    | _ -> usage ()
  in
  match
    let json = parse (read_file path) in
    match mode with
    | `Metrics -> validate_metrics json
    | `Manifest -> validate_manifest json
  with
  | summary -> Printf.printf "validate: %s ok (%s)\n" path summary
  | exception Check_error msg | exception Error msg ->
      Printf.eprintf "validate: %s: %s\n" path msg;
      exit 1
  | exception Sys_error msg ->
      Printf.eprintf "validate: %s\n" msg;
      exit 1
