type mode = Auto | On | Off

(* [live] mirrors "a phase is active and allowed to render" so the
   inactive fast path of [tick]/[note_*] is one atomic load — the same
   gating discipline as Metrics and Trace. All other state is guarded
   by [lock]; ticks arrive from worker domains. *)
let live = Atomic.make false

let lock = Mutex.create ()

let mode = ref Off

let channel = ref stderr

(* At most this many repaints per second: a tick is usually a mutex and
   a clock read, terminal writes happen ten times a second. *)
let min_render_gap = 0.1

type group = { g_name : string; g_total : int; mutable g_done : int }

type phase = {
  label : string;
  total : int;
  groups : group array;  (* empty when the caller declared none *)
  started_at : float;
  mutable completed : int;
  mutable failed : int;
  mutable retried : int;
  mutable current_group : int;  (* index of the last-ticked group, -1 = none *)
  mutable last_render : float;
  mutable last_width : int;  (* painted width, to blank shorter repaints *)
}

let phase : phase option ref = ref None

let set_mode m =
  Mutex.lock lock;
  mode := m;
  Mutex.unlock lock

let set_channel oc =
  Mutex.lock lock;
  channel := oc;
  Mutex.unlock lock

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* A rate computed against a zero or near-zero elapsed time (the first
   trials of a group can all land inside one rate-limit window) divides
   by (almost) nothing and turns into inf — which "%.1f" then prints
   verbatim and which poisons the ETA quotient. Treat any such rate as
   "no estimate yet": 0.0, which the ETA formatter below renders as
   "-:--". *)
let safe_rate ~completed ~elapsed =
  if completed <= 0 || not (Float.is_finite elapsed) || elapsed <= 1e-6 then 0.0
  else
    let rate = float_of_int completed /. elapsed in
    if Float.is_finite rate then rate else 0.0

let eta_string seconds =
  if not (Float.is_finite seconds) || seconds < 0.0 then "-:--"
  else begin
    let s = int_of_float (Float.round seconds) in
    if s >= 3600 then Printf.sprintf "%d:%02d:%02d" (s / 3600) (s mod 3600 / 60) (s mod 60)
    else Printf.sprintf "%d:%02d" (s / 60) (s mod 60)
  end

let render_locked p ~now =
  let rate = safe_rate ~completed:p.completed ~elapsed:(now -. p.started_at) in
  let eta done_ total =
    if done_ = 0 || rate = 0.0 then "-:--"
    else eta_string (float_of_int (total - done_) /. rate)
  in
  let buffer = Buffer.create 128 in
  Buffer.add_char buffer '\r';
  if p.label <> "" then Buffer.add_string buffer (p.label ^ "  ");
  Buffer.add_string buffer
    (Printf.sprintf "%d/%d trials  %.1f/s" p.completed p.total rate);
  if p.current_group >= 0 then begin
    let g = p.groups.(p.current_group) in
    Buffer.add_string buffer
      (Printf.sprintf "  %s %d/%d eta %s" g.g_name g.g_done g.g_total
         (eta g.g_done g.g_total))
  end;
  Buffer.add_string buffer
    (Printf.sprintf "  overall eta %s" (eta p.completed p.total));
  if p.failed > 0 then Buffer.add_string buffer (Printf.sprintf "  failed %d" p.failed);
  if p.retried > 0 then Buffer.add_string buffer (Printf.sprintf "  retried %d" p.retried);
  let width = Buffer.length buffer - 1 in
  (* Blank the tail of a previously longer paint. *)
  for _ = width to p.last_width - 1 do
    Buffer.add_char buffer ' '
  done;
  p.last_width <- width;
  p.last_render <- now;
  output_string !channel (Buffer.contents buffer);
  flush !channel

let clear_locked p =
  if p.last_width > 0 then begin
    output_char !channel '\r';
    output_string !channel (String.make p.last_width ' ');
    output_char !channel '\r';
    flush !channel
  end

let finish () =
  if Atomic.get live then
    with_lock (fun () ->
        match !phase with
        | Some p ->
            clear_locked p;
            phase := None;
            Atomic.set live false
        | None -> ())

let start ?(label = "") ?(groups = []) ~total () =
  with_lock (fun () ->
      (match !phase with Some p -> clear_locked p | None -> ());
      let enabled =
        total > 0
        &&
        match !mode with
        | On -> true
        | Off -> false
        | Auto -> ( try Unix.isatty (Unix.descr_of_out_channel !channel) with Unix.Unix_error _ | Sys_error _ -> false)
      in
      if not enabled then begin
        phase := None;
        Atomic.set live false
      end
      else begin
        let p =
          {
            label;
            total;
            groups =
              Array.of_list
                (List.map (fun (g_name, g_total) -> { g_name; g_total; g_done = 0 }) groups);
            started_at = Unix.gettimeofday ();
            completed = 0;
            failed = 0;
            retried = 0;
            current_group = -1;
            last_render = 0.0;
            last_width = 0;
          }
        in
        phase := Some p;
        Atomic.set live true;
        render_locked p ~now:p.started_at
      end)

let find_group p name =
  let found = ref (-1) in
  Array.iteri (fun i g -> if !found < 0 && g.g_name = name then found := i) p.groups;
  !found

let tick ?group () =
  if Atomic.get live then
    with_lock (fun () ->
        match !phase with
        | None -> ()
        | Some p ->
            p.completed <- p.completed + 1;
            (match group with
            | Some name ->
                let i = find_group p name in
                if i >= 0 then begin
                  p.groups.(i).g_done <- p.groups.(i).g_done + 1;
                  p.current_group <- i
                end
            | None -> ());
            let now = Unix.gettimeofday () in
            (* Always paint the final tick so a finished phase reads
               total/total before [finish] erases it. *)
            if now -. p.last_render >= min_render_gap || p.completed >= p.total then
              render_locked p ~now)

let note counter =
  if Atomic.get live then
    with_lock (fun () ->
        match !phase with
        | None -> ()
        | Some p -> (
            counter p;
            let now = Unix.gettimeofday () in
            if now -. p.last_render >= min_render_gap then render_locked p ~now))

let note_retry () = note (fun p -> p.retried <- p.retried + 1)

let note_failed () = note (fun p -> p.failed <- p.failed + 1)
