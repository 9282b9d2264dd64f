(* In-memory span recorder for the traced pass.

   Spans are opened around calls into the library's public functions,
   nest by a stack, and stay in memory until the run ends, when they are
   written out in the trace JSONL v1 schema (see [Obs.Trace]) so that
   [dhtlab trace report] reads them like any other trace. Each span
   carries the per-layer metric it is charged to; a layer's self time is
   the span's duration minus the time its child spans cover. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  metric : string;  (** per-layer metric the self time is charged to *)
  attrs : (string * Obs.Trace.value) list;
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;
}

type t = { mutable spans : span list; mutable stack : span list; mutable next : int }

let create () = { spans = []; stack = []; next = 1 }

let span t ?(attrs = []) ~metric name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> 0 in
  let s =
    { id = t.next; parent; name; metric; attrs; t0 = Unix.gettimeofday (); t1 = 0.; child_s = 0. }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      t.stack <- List.tl t.stack;
      (match t.stack with p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0) | [] -> ());
      t.spans <- s :: t.spans)
    f

(* Shorthand for a span charged to a per-geometry metric
   ["<metric>.<geometry>"]. *)
let geo_span t ~metric geometry name f =
  let g = Rcm.Geometry.name geometry in
  span t ~attrs:[ ("geometry", Obs.Trace.String g) ] ~metric:(metric ^ "." ^ g) name f

let duration s = s.t1 -. s.t0
let self_time s = duration s -. s.child_s

(* Σ self time per metric, over every closed span. *)
let rollup t =
  let table = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt table s.metric) in
      Hashtbl.replace table s.metric (prev +. self_time s))
    t.spans;
  table

(* Records in the order a live sink would have written them (by end
   time), with the span tree kept as id/parent attributes. *)
let write_jsonl t ~run oc =
  let value = function
    | Obs.Trace.String s -> Printf.sprintf "%S" s
    | Obs.Trace.Int i -> string_of_int i
    | Obs.Trace.Float f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
    | Obs.Trace.Bool b -> string_of_bool b
  in
  List.sort (fun a b -> compare a.t1 b.t1) t.spans
  |> List.iter (fun s ->
         let attrs =
           [
             ("run", Obs.Trace.String run);
             ("id", Obs.Trace.Int s.id);
             ("parent", Obs.Trace.Int s.parent);
             ("self_s", Obs.Trace.Float (self_time s));
           ]
           @ s.attrs
         in
         Printf.fprintf oc
           "{\"ts\": %.6f, \"kind\": \"span\", \"name\": %S, \"domain\": 0, \"dur_s\": %.9f, \
            \"attrs\": {%s}}\n"
           s.t1 s.name (duration s)
           (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) attrs)))
