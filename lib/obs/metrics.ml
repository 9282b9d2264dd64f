(* Global metric registry. Counters are lock-free (one Atomic.t each);
   histograms take a per-histogram mutex only while recording. The
   registry itself is touched only on interning and snapshotting.

   Everything is gated on [enabled_flag]: a single atomic load on the
   disabled path, so instrumented hot loops (one route call per sampled
   pair) cost nothing when metrics are off. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let now () = if Atomic.get enabled_flag then Unix.gettimeofday () else 0.0

(* --- counters ------------------------------------------------------------- *)

type counter = { c_value : int Atomic.t }

(* Base-2 log buckets: bucket i holds observations v with
   2^(i - bias) <= v < 2^(i - bias + 1); bucket 0 collects v <= 0 and
   underflows. 129 buckets cover 2^-64 .. 2^64, far beyond any duration
   or fraction this system observes. *)
let buckets = 129

let bias = 64

type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let registry_lock = Mutex.create ()

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 64

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_value = Atomic.make 0 } in
          Hashtbl.add counters_tbl name c;
          c)

let incr ?(by = 1) c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value by)

let incr_named ?by name = if Atomic.get enabled_flag then incr ?by (counter name)

(* --- histograms ----------------------------------------------------------- *)

let histogram name =
  with_registry (fun () ->
      match Hashtbl.find_opt histograms_tbl name with
      | Some h -> h
      | None ->
          let h =
            {
              h_lock = Mutex.create ();
              h_count = 0;
              h_sum = 0.0;
              h_min = infinity;
              h_max = neg_infinity;
              h_buckets = Array.make buckets 0;
            }
          in
          Hashtbl.add histograms_tbl name h;
          h)

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else begin
    let exponent = snd (Float.frexp v) in
    (* v in [2^(e-1), 2^e) -> bucket e - 1 + bias, clamped. *)
    let i = exponent - 1 + bias in
    if i < 0 then 0 else if i >= buckets then buckets - 1 else i
  end

(* Upper edge of bucket i — the value reported for quantiles that land
   in the bucket (conservative: never underestimates). Bucket i covers
   [2^(i - bias), 2^(i - bias + 1)). *)
let bucket_upper i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - bias + 1)

let observe h v =
  if Atomic.get enabled_flag then begin
    Mutex.lock h.h_lock;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    Mutex.unlock h.h_lock
  end

(* [times] identical observations under one lock acquisition — the
   batch routing kernel's per-batch flush. Equal (not just close) to
   [times] separate [observe] calls whenever [v] and the running sum
   stay on integers below 2^53, which holds for hop-count histograms:
   [v *. times] is then the exact sum of the repeated additions. *)
let observe_n h v ~times =
  if times < 0 then invalid_arg "Metrics.observe_n: negative count";
  if times > 0 && Atomic.get enabled_flag then begin
    Mutex.lock h.h_lock;
    h.h_count <- h.h_count + times;
    h.h_sum <- h.h_sum +. (v *. float_of_int times);
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + times;
    Mutex.unlock h.h_lock
  end

let observe_named name v =
  if Atomic.get enabled_flag then observe (histogram name) v

(* --- snapshots ------------------------------------------------------------ *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_summary) list;
}

let quantile ~count ~max_value counts q =
  if count = 0 then 0.0
  else begin
    let rank = int_of_float (Float.of_int count *. q) in
    let rank = if rank >= count then count - 1 else rank in
    let seen = ref 0 in
    let result = ref max_value in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if !seen > rank then begin
             result := Float.min max_value (bucket_upper i);
             raise Exit
           end)
         counts
     with Exit -> ());
    !result
  end

let summarize h =
  Mutex.lock h.h_lock;
  let count = h.h_count
  and sum = h.h_sum
  and min_v = h.h_min
  and max_v = h.h_max
  and counts = Array.copy h.h_buckets in
  Mutex.unlock h.h_lock;
  if count = 0 then
    { count = 0; sum = 0.0; min = 0.0; max = 0.0; mean = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  else
    {
      count;
      sum;
      min = min_v;
      max = max_v;
      mean = sum /. float_of_int count;
      p50 = quantile ~count ~max_value:max_v counts 0.50;
      p90 = quantile ~count ~max_value:max_v counts 0.90;
      p99 = quantile ~count ~max_value:max_v counts 0.99;
    }

let snapshot () =
  let counters, histograms =
    with_registry (fun () ->
        ( Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_value) :: acc) counters_tbl [],
          Hashtbl.fold (fun name h acc -> (name, h) :: acc) histograms_tbl [] ))
  in
  {
    counters = List.sort (fun (a, _) (b, _) -> String.compare a b) counters;
    histograms =
      List.map
        (fun (name, h) -> (name, summarize h))
        (List.sort (fun (a, _) (b, _) -> String.compare a b) histograms);
  }

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters_tbl;
      Hashtbl.iter
        (fun _ h ->
          Mutex.lock h.h_lock;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Array.fill h.h_buckets 0 buckets 0;
          Mutex.unlock h.h_lock)
        histograms_tbl)

(* --- rendering ------------------------------------------------------------ *)

let pp_summary ppf () =
  let s = snapshot () in
  Format.fprintf ppf "==== metrics ====@\n";
  if s.counters = [] && s.histograms = [] then Format.fprintf ppf "(no metrics recorded)@\n";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-42s %12d@\n" name v) s.counters;
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%-42s n=%-8d mean=%-12.6g min=%-12.6g p50=%-12.6g p90=%-12.6g max=%-12.6g@\n"
        name h.count h.mean h.min h.p50 h.p90 h.max)
    s.histograms;
  (* Load imbalance of the last pool runs: how much longer the slowest
     block took than the average one (1.0 = perfectly balanced). *)
  (match List.assoc_opt "pool/block_s" s.histograms with
  | Some h when h.count > 0 && h.mean > 0.0 ->
      Format.fprintf ppf "%-42s %12.2f@\n" "pool/imbalance (max block / mean)" (h.max /. h.mean)
  | Some _ | None -> ())

(* JSON rendering: floats that are not finite become null so the file
   stays standard JSON. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let to_json () =
  let s = snapshot () in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "{\"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buffer ", ";
      Tiny_json.add_escaped buffer name;
      Buffer.add_string buffer (Printf.sprintf ": %d" v))
    s.counters;
  Buffer.add_string buffer "}, \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_string buffer ", ";
      Tiny_json.add_escaped buffer name;
      Buffer.add_string buffer
        (Printf.sprintf
           ": {\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \"mean\": %s, \
            \"p50\": %s, \"p90\": %s, \"p99\": %s}"
           h.count (json_float h.sum) (json_float h.min)
           (json_float h.max) (json_float h.mean) (json_float h.p50) (json_float h.p90)
           (json_float h.p99)))
    s.histograms;
  Buffer.add_string buffer "}}";
  Buffer.contents buffer
