(** Quorum thresholds for replicated reads and writes.

    A key has [r] replicas; a write must install on [wq] of them and a
    read must assemble [rq] fresh copies. When [rq + wq > r] any read
    quorum intersects any write quorum, so a successful read observes
    the latest successful write (read-your-writes) — the standard
    Dynamo/Cassandra-style algebra, as in NomadFS's quorum layer. *)

type t = private { r : int; rq : int; wq : int }

val make : r:int -> rq:int -> wq:int -> t
(** @raise Invalid_argument unless [1 <= rq <= r] and [1 <= wq <= r]. *)

val majority : r:int -> t
(** Both thresholds at ⌊r/2⌋ + 1 — the smallest symmetric
    read-your-writes configuration. *)

type read_outcome =
  | Quorum  (** reached >= rq holders: a fresh, consistent read *)
  | Degraded of int
      (** reached this many holders, 0 < reached < rq: data returned
          but possibly stale (no intersection guarantee) *)
  | Unavailable  (** reached no holder at all *)

val classify : t -> reached:int -> read_outcome
(** @raise Invalid_argument if [reached] is negative. *)

val threshold_of_string : r:int -> string -> (int, string) result
(** Parses a CLI threshold spec against replication degree [r]:
    ["majority"] -> ⌊r/2⌋ + 1, ["one"] -> 1, ["all"] -> [r], or an
    integer in [1, r]. *)

val pp : Format.formatter -> t -> unit
(** Renders as ["R=3 Rq=2 Wq=2"]. *)
