(** Versioned JSONL checkpoint store for Monte-Carlo sweeps.

    A checkpoint records every completed unit of a sweep, keyed by
    everything that determines it bit-for-bit, so a sweep interrupted
    in hour three resumes by replaying stored results and only computes
    what is missing. Two record shapes share the file:

    - {b trial records} of {!Estimate.run_sweep}, one per trial,
      keyed by geometry, identifier length, failure probability, pairs
      per trial, master seed and trial index (the typed {!key} /
      {!outcome} API);
    - {b point records} of the point sweeps ({!Sweep.points}), one
      per grid point: a ["kind"] tag, then the ordered key fields, then
      the value fields ({!find_point} / {!record_point}). Each
      experiment's codec decides the fields.

    On-disk format: one JSON object per line, every object starting
    with ["v"] (the format version, 2). The first line is a
    header, [{"v": 2, "kind": "dht_rcm-checkpoint"}]; trial records
    follow in key order, then point records sorted by (kind, key
    fields). A trial record keeps its hops as the histogram
    ["hop_counts"], so its size does not grow with the pairs per
    trial. Version 1 stored a ["hops"] list, one entry per delivery;
    {!load} reads such lines and converts the list exactly, and the
    next flush writes version 2. One
    printer writes every line: every number with [%.17g], which
    round-trips every finite double (and every integer within
    ±(2^53 − 1)) exactly — the foundation of the byte-identical-resume
    guarantee; a non-finite number is written as an absent field, since
    JSON has no spelling for it. {!Obs.Tiny_json} reads the lines back.
    The file is rewritten in full through {!Obs.Atomic_file} (write
    temp, rename) after every [interval] records and on {!flush}, so
    readers and resumed runs never see a truncated checkpoint.

    The store is mutex-protected: work running on any pool domain may
    record concurrently. *)

type t

type key = {
  geometry : string;  (** [Rcm.Geometry.name] *)
  bits : int;
  q : float;
  pairs : int;
  seed : int;  (** within ±(2^53 − 1), see {!exact_int} *)
  trial : int;  (** trial index within the config, from 0 *)
}

type trial = {
  delivered : int;
  attempted : int;
  alive_fraction : float;
  hop_counts : int array;
      (** [hop_counts.(h)] delivered pairs took [h] hops; one longer
          than the largest such [h], [[||]] when none was delivered *)
}
(** What {!Trial.run} returns. *)

type outcome =
  | Trial of trial
  | Failed of { attempts : int; error : string }
      (** A trial that exhausted its retries; replayed as failed on
          resume (under the same fault plan it would fail again), so
          the resumed report matches the uninterrupted one. *)

type fields = (string * Obs.Tiny_json.t) list
(** The fields of a record, in file order. *)

val create : ?interval:int -> path:string -> unit -> t
(** A fresh store writing to [path]; any existing file is ignored and
    replaced at the first flush. [interval] (default 8) is the number
    of recorded trials or points between automatic flushes.
    @raise Invalid_argument when [interval < 1]. *)

val load : ?interval:int -> path:string -> unit -> t
(** Like {!create}, but seeds the store from an existing checkpoint at
    [path]. A missing file yields an empty store (an interrupted run
    may have stopped before its first flush). Point records of every
    kind are kept, and rewritten unchanged, whether or not the run
    looks them up. A trial record must be one {!Trial.run} can return
    for its key: [attempted] is 0 or the key's [pairs],
    [0 <= delivered <= attempted], [0 <= alive_fraction <= 1], and the
    hop counts are non-negative, sum to [delivered] and end in a
    positive count, with no hop at or past [2^bits] (a version-1 list:
    one hop per delivery, each in [[0, 2^bits)]).
    @raise Failure naming the path and line (["<path>, line N: ..."])
    on a corrupt, inconsistent or version-incompatible line, or naming
    the path when the file cannot be read. *)

val find : t -> key -> outcome option

val record : t -> key -> outcome -> unit
(** Stores (or replaces) the outcome and flushes automatically every
    [interval] records. *)

val find_point : t -> kind:string -> key:fields -> decode:(fields -> 'a) -> 'a option
(** The point record of [kind] whose fields begin with [key], its value
    fields (those after the key) passed through [decode].
    @raise Failure naming the path and line when [decode] raises
    [Failure]. *)

val record_point : t -> kind:string -> key:fields -> fields -> unit
(** [record_point t ~kind ~key value] stores (or replaces) the point
    record of [kind] and [key], flushing as {!record} does. *)

(** {1 Fields} *)

val exact_int : int -> bool
(** Whether a JSON number holds this integer exactly: it lies within
    ±(2^53 − 1). *)

val int : int -> Obs.Tiny_json.t
(** The number field of an integer.
    @raise Invalid_argument unless {!exact_int}. *)

val get_int : fields -> string -> int
val get_float : fields -> string -> float
(** Field getters for decoders.
    @raise Failure naming the field when it is absent or of another
    type ([get_int] also rejects a fraction or a value outside
    ±(2^53 − 1)). *)

val flush : t -> unit
(** Write the whole store to disk now (atomic temp + rename). Always
    called by sweep drivers before finishing or unwinding on
    cancellation. Idempotent. *)

val length : t -> int
(** Number of stored records: trial records plus point records. *)

val path : t -> string
