(** Post-hoc analysis of the JSONL traces {!Trace} writes: loading,
    aggregation ([dhtlab trace report]) and conversion to the Chrome
    trace-event format ([dhtlab trace export-chrome], viewable in
    Perfetto or chrome://tracing).

    The trace schema (v1, pinned in DESIGN.md "Trace schema and
    analysis") is one JSON object per line with fields [ts] (Unix
    seconds, stamped at span {e end}), [kind] ("span" | "event"),
    [name], [domain], optional [dur_s] (spans) and optional [attrs]. *)

type record = {
  ts : float;
  kind : string;  (** "span" or "event" *)
  name : string;
  domain : int;
  dur_s : float option;  (** spans only *)
  attrs : (string * Tiny_json.t) list;
}

exception Corrupt of string
(** A line that is not a well-formed trace record; the message names
    the line number and problem. *)

type load_result = {
  records : record list;  (** in file order *)
  skipped : int;  (** unparseable lines dropped (always 0 unless [allow_partial]) *)
}

val load : ?allow_partial:bool -> string -> load_result
(** Read a JSONL trace. With [allow_partial] (for a ".tmp" left by a
    hard-killed run, whose final line may be cut off mid-record),
    unparseable lines are counted in [skipped] instead of raising.
    Blank lines are ignored either way.
    @raise Corrupt on the first bad line when [allow_partial] is false.
    @raise Sys_error when the file cannot be read. *)

(** {1 Aggregation} *)

type span_stats = {
  sp_count : int;
  sp_total_s : float;
  sp_min_s : float;
  sp_p50_s : float;  (** exact (nearest-rank over the stored durations) *)
  sp_p99_s : float;
  sp_max_s : float;
}

type domain_stats = {
  dom_id : int;
  dom_spans : int;
  dom_busy_s : float;  (** summed span durations on this domain *)
}

type report = {
  total_records : int;
  span_records : int;
  event_records : int;
  wall_s : float;
      (** last timestamp - earliest span start ([ts - dur_s]; a span's
          [ts] is its end), over finite values *)
  spans : (string * span_stats) list;  (** sorted by total time, descending *)
  domains : domain_stats list;  (** sorted by domain id *)
  imbalance : float option;
      (** max busy / mean busy over domains that ran spans; [None] when
          no span carries a duration *)
  hops : (string * (int * int) list) list;
      (** per geometry: (hop count, deliveries) ascending — aggregated
          from the [hops] attribute of [estimate/trial] events *)
  slowest : (float * record) list;  (** top-k spans by duration, descending *)
}

val analyze : ?top:int -> record list -> report
(** Aggregate a loaded trace; [top] (default 5) bounds [slowest]. *)

val pp_report : Format.formatter -> report -> unit
(** The aligned tables [dhtlab trace report] prints: per-span
    aggregates, per-domain utilisation and imbalance, per-geometry
    hop-count distributions and the slowest spans. *)

(** {1 Chrome trace-event export} *)

val export_chrome : record list -> out_channel -> unit
(** Write the records as a Chrome trace-event JSON object
    [{"displayTimeUnit": "ms", "traceEvents": [...]}]: spans become
    complete ("ph":"X") events with microsecond [ts]/[dur] rebased to
    the trace start, instant events become "ph":"i", and [domain] maps
    to [tid]. Attrs ride along under [args]. *)
