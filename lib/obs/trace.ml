type value = String of string | Int of int | Float of float | Bool of bool

(* The sink is guarded by [lock]; [active] mirrors "sink <> None" so the
   disabled fast path is one atomic load, with no lock taken. The sink
   writes to a sibling ".tmp" file and is renamed into place only when
   closed, so an aborted run never leaves a truncated trace at the
   requested path. *)
let lock = Mutex.create ()

type target = { oc : out_channel; tmp : string; path : string; mutable unflushed : int }

(* A hard-killed run never runs [close]: without periodic flushing the
   whole trace would sit in the channel buffer and the ".tmp" file on
   disk would stay empty. Flushing every [flush_interval] records bounds
   the loss to the records since the last flush; "dhtlab trace report
   --allow-partial" reads the possibly mid-line ".tmp" that such a kill
   leaves behind. *)
let flush_interval = 32

let sink : target option ref = ref None

let active = Atomic.make false

let enabled () = Atomic.get active

let install target =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      (match !sink with
      | Some old -> (
          (try close_out old.oc with Sys_error _ -> ());
          try Sys.rename old.tmp old.path
          with Sys_error e ->
            Printf.eprintf "Obs.Trace: could not finalise %s: %s\n%!" old.path e)
      | None -> ());
      sink := target;
      Atomic.set active (target <> None))

let open_file path =
  let tmp = Atomic_file.temp_path path in
  install (Some { oc = open_out tmp; tmp; path; unflushed = 0 })

let close () = install None

let buffer_value buffer = function
  | String s -> Tiny_json.add_escaped buffer s
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f ->
      Buffer.add_string buffer (if Float.is_finite f then Printf.sprintf "%.9g" f else "null")
  | Bool b -> Buffer.add_string buffer (string_of_bool b)

let emit ~ts ~kind ~name ?dur_s attrs =
  let buffer = Buffer.create 160 in
  Buffer.add_string buffer (Printf.sprintf "{\"ts\": %.6f, \"kind\": " ts);
  Tiny_json.add_escaped buffer kind;
  Buffer.add_string buffer ", \"name\": ";
  Tiny_json.add_escaped buffer name;
  Buffer.add_string buffer (Printf.sprintf ", \"domain\": %d" (Domain.self () :> int));
  (match dur_s with
  | Some d -> Buffer.add_string buffer (Printf.sprintf ", \"dur_s\": %.9f" d)
  | None -> ());
  if attrs <> [] then begin
    Buffer.add_string buffer ", \"attrs\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buffer ", ";
        Tiny_json.add_escaped buffer k;
        Buffer.add_string buffer ": ";
        buffer_value buffer v)
      attrs;
    Buffer.add_char buffer '}'
  end;
  Buffer.add_string buffer "}\n";
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match !sink with
      | Some target ->
          Buffer.output_buffer target.oc buffer;
          target.unflushed <- target.unflushed + 1;
          if target.unflushed >= flush_interval then begin
            target.unflushed <- 0;
            try Stdlib.flush target.oc with Sys_error _ -> ()
          end
      | None -> () (* sink removed since the atomic check: drop the record *))

let span name ?(attrs = []) f =
  let tracing = Atomic.get active and metering = Metrics.enabled () in
  if not (tracing || metering) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        if metering then Metrics.observe_named (name ^ "_s") (t1 -. t0);
        if tracing then emit ~ts:t1 ~kind:"span" ~name ~dur_s:(t1 -. t0) attrs)
      f
  end

let event name ?(attrs = []) () =
  if Atomic.get active then emit ~ts:(Unix.gettimeofday ()) ~kind:"event" ~name attrs
