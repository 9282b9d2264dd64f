(** A minimal JSON reader for this repository's own artefacts.

    Every JSON file the system writes (metrics snapshots, manifests,
    JSONL traces, checkpoints) is produced by our own printers, but the
    tools that read them back ({!Trace_reader},
    [bench/validate.ml]) parse real JSON — escapes, nesting, numbers —
    rather than scraping substrings, so a hand-edited or truncated file
    fails loudly instead of being half-read. Dependency-free on
    purpose: recursive descent over a string, no external packages. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!parse} with a message naming the first problem and its
    byte offset. *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an {!Error}. *)

(** {1 Accessors} — thin helpers so schema checks read declaratively. *)

val member : string -> t -> t option
(** [member key (Obj ...)] is the field's value; [None] when the field
    is absent or the value is not an object. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
(** [to_int] succeeds only on a number with no fractional part within
    ±(2^53 − 1), where every integer has an exact double: a larger
    number may stand for a neighbouring integer, so it gives [None]. *)

val to_list : t -> t list option
val to_obj : t -> (string * t) list option

val add_escaped : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: quote, backslash, newline, tab
    and carriage return get their short escapes, other control bytes
    [\u00XX]; every other byte is copied as is. The one string writer
    of every JSON sink: trace records, metrics snapshots, manifests,
    the Chrome export and checkpoints. *)

val to_string : t -> string
(** Compact one-line rendering (re-emission for converters, e.g. the
    Chrome trace exporter). Non-finite numbers render as [null]. *)
