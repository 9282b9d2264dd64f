(** The library's one timer, and its optional JSONL trace sink.

    {!span} times a named region: an overlay build, a failure
    injection, a trial, a sweep point. When a sink is open it writes
    the span as one JSON line; when {!Metrics} are on it also records
    the duration in the histogram [<name>_s], so one call site and one
    pair of clock reads feed both sinks. With neither on, a span is
    exactly [f ()]. Like {!Metrics}, tracing must never touch a PRNG
    stream (simulation results are bit-identical with tracing on or
    off; pinned by [test/test_obs.ml]).

    Record schema (one line each, fields in this order):
    {v
    {"ts": <float, Unix seconds>, "kind": "span" | "event",
     "name": <string>, "domain": <int, Domain.self>,
     "dur_s": <float, spans only>, "attrs": {<string>: value, ...}}
    v}
    [value] is a JSON string, int, float or bool. A span's [ts] is its
    end. Writes are serialised by a mutex, so lines from concurrent
    domains never interleave. *)

type value = String of string | Int of int | Float of float | Bool of bool

val open_file : string -> unit
(** [open_file path] opens a sink that writes to [path ^ ".tmp"] and
    is atomically renamed onto [path] when the sink is closed
    ({!close} or another [open_file]). Readers therefore never observe
    a truncated trace at [path], even when the run is interrupted and
    the sink is closed from a cleanup handler. *)

val enabled : unit -> bool
(** Whether a sink is open: one atomic load. *)

val span : string -> ?attrs:(string * value) list -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and returns its result. With a sink open it
    emits a span record carrying [f]'s wall-clock duration; with
    metrics on it records the same duration in the histogram
    [name ^ "_s"]. Both happen also when [f] raises, and the exception
    is re-raised. With neither on it is exactly [f ()]: no clock read
    and no allocation, so callers build [attrs] only when {!enabled}. *)

val event : string -> ?attrs:(string * value) list -> unit -> unit
(** Emit an instant event (no duration). No-op when no sink is open. *)

val flush_interval : int
(** Records between automatic flushes of the sink's channel (a
    constant). A hard-killed run (SIGKILL, OOM) never closes its sink,
    so it loses at most the records since the last flush, and its
    trace stays at the staging ["<path>.tmp"]; recover that file with
    [dhtlab trace report --allow-partial]. Test hook: lets the
    crash-recovery test write exactly one flush's worth of records. *)

val close : unit -> unit
(** Close the open sink, if any, and rename its staging file onto its
    path. *)
