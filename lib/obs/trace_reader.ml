type record = {
  ts : float;
  kind : string;
  name : string;
  domain : int;
  dur_s : float option;
  attrs : (string * Tiny_json.t) list;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type load_result = { records : record list; skipped : int }

let record_of_json lineno json =
  let get name =
    match Tiny_json.member name json with
    | Some v -> v
    | None -> corrupt "line %d: missing field %S" lineno name
  in
  let str name =
    match Tiny_json.to_str (get name) with
    | Some s -> s
    | None -> corrupt "line %d: field %S: expected a string" lineno name
  in
  let num name =
    match Tiny_json.to_num (get name) with
    | Some v -> v
    | None -> corrupt "line %d: field %S: expected a number" lineno name
  in
  {
    ts = num "ts";
    kind = str "kind";
    name = str "name";
    domain =
      (match Tiny_json.to_int (get "domain") with
      | Some d -> d
      | None -> corrupt "line %d: field \"domain\": expected an integer" lineno);
    dur_s = Option.bind (Tiny_json.member "dur_s" json) Tiny_json.to_num;
    attrs =
      (match Tiny_json.member "attrs" json with
      | Some attrs -> (
          match Tiny_json.to_obj attrs with
          | Some fields -> fields
          | None -> corrupt "line %d: field \"attrs\": expected an object" lineno)
      | None -> []);
  }

let load ?(allow_partial = false) path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let records = ref [] in
      let skipped = ref 0 in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             match record_of_json !lineno (Tiny_json.parse line) with
             | record -> records := record :: !records
             | exception (Tiny_json.Error _ | Corrupt _) when allow_partial -> incr skipped
             | exception Tiny_json.Error msg -> corrupt "line %d: %s" !lineno msg
         done
       with End_of_file -> ());
      { records = List.rev !records; skipped = !skipped })

(* --- aggregation ----------------------------------------------------------- *)

type span_stats = {
  sp_count : int;
  sp_total_s : float;
  sp_min_s : float;
  sp_p50_s : float;
  sp_p99_s : float;
  sp_max_s : float;
}

type domain_stats = { dom_id : int; dom_spans : int; dom_busy_s : float }

type report = {
  total_records : int;
  span_records : int;
  event_records : int;
  wall_s : float;
  spans : (string * span_stats) list;
  domains : domain_stats list;
  imbalance : float option;
  hops : (string * (int * int) list) list;
  slowest : (float * record) list;
}

(* Nearest-rank quantile over an ascending array — exact, unlike the
   bucketed estimates in {!Metrics}, because the report tool has every
   sample in hand. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (q *. float_of_int n) in
    sorted.(if rank >= n then n - 1 else rank)
  end

let stats_of_durations durations =
  let sorted = Array.of_list durations in
  Array.sort compare sorted;
  let n = Array.length sorted in
  {
    sp_count = n;
    sp_total_s = Array.fold_left ( +. ) 0.0 sorted;
    sp_min_s = (if n = 0 then 0.0 else sorted.(0));
    sp_p50_s = quantile sorted 0.50;
    sp_p99_s = quantile sorted 0.99;
    sp_max_s = (if n = 0 then 0.0 else sorted.(n - 1));
  }

(* The "hops" attribute of estimate/trial events is a compact
   "hops:count,hops:count" string (see Sim.Estimate); tolerate and skip
   malformed fragments so one odd record cannot sink a whole report. *)
let parse_hops_attr s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.filter_map (fun pair ->
           match String.index_opt pair ':' with
           | None -> None
           | Some i -> (
               match
                 ( int_of_string_opt (String.sub pair 0 i),
                   int_of_string_opt (String.sub pair (i + 1) (String.length pair - i - 1)) )
               with
               | Some hops, Some count when hops >= 0 && count > 0 -> Some (hops, count)
               | _ -> None))

(* A trace's wall window, over finite values only: from its earliest
   span start to its latest timestamp. A span's [ts] is stamped when it
   ends, so it started at [ts - dur_s]; an event starts at its [ts]. *)
let window records =
  List.fold_left
    (fun (lo, hi) r ->
      let start = r.ts -. Option.value ~default:0.0 r.dur_s in
      ( (if Float.is_finite start then Float.min lo start else lo),
        if Float.is_finite r.ts then Float.max hi r.ts else hi ))
    (infinity, neg_infinity) records

let analyze ?(top = 5) records =
  let by_name : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let by_domain : (int, int * float) Hashtbl.t = Hashtbl.create 8 in
  let by_geometry : (string, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let span_records = ref 0 in
  let event_records = ref 0 in
  let slowest = ref [] in
  List.iter
    (fun r ->
      if r.kind = "span" then begin
        incr span_records;
        let dur = Option.value ~default:0.0 r.dur_s in
        (match Hashtbl.find_opt by_name r.name with
        | Some durations -> durations := dur :: !durations
        | None -> Hashtbl.add by_name r.name (ref [ dur ]));
        let spans, busy =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_domain r.domain)
        in
        Hashtbl.replace by_domain r.domain (spans + 1, busy +. dur);
        slowest := (dur, r) :: !slowest
      end
      else begin
        incr event_records;
        if r.name = "estimate/trial" then
          match
            ( Option.bind (List.assoc_opt "geometry" r.attrs) Tiny_json.to_str,
              Option.bind (List.assoc_opt "hops" r.attrs) Tiny_json.to_str )
          with
          | Some geometry, Some hops ->
              let table =
                match Hashtbl.find_opt by_geometry geometry with
                | Some t -> t
                | None ->
                    let t = Hashtbl.create 16 in
                    Hashtbl.add by_geometry geometry t;
                    t
              in
              List.iter
                (fun (h, c) ->
                  Hashtbl.replace table h
                    (c + Option.value ~default:0 (Hashtbl.find_opt table h)))
                (parse_hops_attr hops)
          | _ -> ()
      end)
    records;
  let spans =
    Hashtbl.fold (fun name durations acc -> (name, stats_of_durations !durations) :: acc)
      by_name []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b.sp_total_s a.sp_total_s with 0 -> compare na nb | c -> c)
  in
  let domains =
    Hashtbl.fold
      (fun dom_id (dom_spans, dom_busy_s) acc -> { dom_id; dom_spans; dom_busy_s } :: acc)
      by_domain []
    |> List.sort (fun a b -> compare a.dom_id b.dom_id)
  in
  let imbalance =
    match List.filter (fun d -> d.dom_spans > 0) domains with
    | [] -> None
    | busy ->
        let total = List.fold_left (fun acc d -> acc +. d.dom_busy_s) 0.0 busy in
        let mean = total /. float_of_int (List.length busy) in
        if mean <= 0.0 then None
        else
          Some
            (List.fold_left (fun acc d -> Float.max acc d.dom_busy_s) 0.0 busy /. mean)
  in
  let hops =
    Hashtbl.fold
      (fun geometry table acc ->
        let distribution =
          Hashtbl.fold (fun h c acc -> (h, c) :: acc) table []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        (geometry, distribution) :: acc)
      by_geometry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let slowest =
    List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev !slowest)
    |> List.filteri (fun i _ -> i < top)
  in
  {
    total_records = List.length records;
    span_records = !span_records;
    event_records = !event_records;
    wall_s = (match window records with lo, hi when hi >= lo -> hi -. lo | _ -> 0.0);
    spans;
    domains;
    imbalance;
    hops;
    slowest;
  }

let pp_report ppf r =
  Format.fprintf ppf "==== trace ====@\n";
  Format.fprintf ppf "records %d (spans %d, events %d), domains %d, wall %.3f s@\n"
    r.total_records r.span_records r.event_records (List.length r.domains) r.wall_s;
  Format.fprintf ppf "==== spans ====@\n";
  if r.spans = [] then Format.fprintf ppf "(no spans)@\n"
  else begin
    Format.fprintf ppf "%-34s %8s %12s %12s %12s %12s@\n" "name" "count" "total_s" "p50_s"
      "p99_s" "max_s";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "%-34s %8d %12.6f %12.6f %12.6f %12.6f@\n" name s.sp_count
          s.sp_total_s s.sp_p50_s s.sp_p99_s s.sp_max_s)
      r.spans
  end;
  Format.fprintf ppf "==== domains ====@\n";
  if r.domains = [] then Format.fprintf ppf "(no domain activity)@\n"
  else begin
    Format.fprintf ppf "%8s %8s %12s %12s@\n" "domain" "spans" "busy_s" "utilisation";
    List.iter
      (fun d ->
        let utilisation =
          if r.wall_s > 0.0 then
            Printf.sprintf "%.1f%%" (100.0 *. d.dom_busy_s /. r.wall_s)
          else "-"
        in
        Format.fprintf ppf "%8d %8d %12.6f %12s@\n" d.dom_id d.dom_spans d.dom_busy_s
          utilisation)
      r.domains;
    match r.imbalance with
    | Some ratio ->
        Format.fprintf ppf "imbalance (max busy / mean busy) %.2f@\n" ratio
    | None -> ()
  end;
  Format.fprintf ppf "==== hops (per geometry) ====@\n";
  if r.hops = [] then
    Format.fprintf ppf "(no estimate/trial events with hop data)@\n"
  else
    List.iter
      (fun (geometry, distribution) ->
        let deliveries = List.fold_left (fun acc (_, c) -> acc + c) 0 distribution in
        let weighted =
          List.fold_left (fun acc (h, c) -> acc +. float_of_int (h * c)) 0.0 distribution
        in
        Format.fprintf ppf "%-10s deliveries %d, mean %.2f |" geometry deliveries
          (if deliveries = 0 then 0.0 else weighted /. float_of_int deliveries);
        List.iter (fun (h, c) -> Format.fprintf ppf " %d:%d" h c) distribution;
        Format.fprintf ppf "@\n")
      r.hops;
  Format.fprintf ppf "==== slowest spans ====@\n";
  if r.slowest = [] then Format.fprintf ppf "(no spans)@\n"
  else
    List.iteri
      (fun i (dur, record) ->
        Format.fprintf ppf "%2d  %10.6f s  %-30s (domain %d)@\n" (i + 1) dur record.name
          record.domain)
      r.slowest

(* --- Chrome trace-event export --------------------------------------------- *)

let export_chrome records oc =
  (* Rebase to the window's start so no event sits at a negative
     timestamp. *)
  let origin = match window records with lo, _ when Float.is_finite lo -> lo | _ -> 0.0 in
  (* A non-finite ts/dur (a corrupt or hand-edited trace parses "1e999"
     to infinity) must not leak into the output as the bare token "inf"
     / "nan" — that is not JSON. Serialize it as null, exactly like the
     metrics sink and Tiny_json do for non-finite numbers. *)
  let micros v =
    let us = 1e6 *. v in
    if Float.is_finite us then Printf.sprintf "%.3f" us else "null"
  in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      output_string oc "\n  ";
      let buffer = Buffer.create 160 in
      Buffer.add_char buffer '{';
      Buffer.add_string buffer "\"name\": ";
      Tiny_json.add_escaped buffer r.name;
      Buffer.add_string buffer ", \"cat\": ";
      Tiny_json.add_escaped buffer r.kind;
      Buffer.add_string buffer (Printf.sprintf ", \"pid\": 1, \"tid\": %d" r.domain);
      (match (r.kind, r.dur_s) with
      | "span", Some dur ->
          Buffer.add_string buffer
            (Printf.sprintf ", \"ph\": \"X\", \"ts\": %s, \"dur\": %s"
               (micros (r.ts -. dur -. origin))
               (micros dur))
      | "span", None ->
          Buffer.add_string buffer
            (Printf.sprintf ", \"ph\": \"X\", \"ts\": %s, \"dur\": 0" (micros (r.ts -. origin)))
      | _ ->
          Buffer.add_string buffer
            (Printf.sprintf ", \"ph\": \"i\", \"s\": \"t\", \"ts\": %s" (micros (r.ts -. origin))));
      if r.attrs <> [] then begin
        Buffer.add_string buffer ", \"args\": ";
        Buffer.add_string buffer (Tiny_json.to_string (Tiny_json.Obj r.attrs))
      end;
      Buffer.add_char buffer '}';
      Buffer.output_buffer oc buffer)
    records;
  output_string oc "\n]}\n"
