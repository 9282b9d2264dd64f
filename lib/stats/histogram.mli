(** Integer-bucket histograms (hop counts, component sizes). *)

type t

val create : buckets:int -> t
(** Buckets are 0 .. buckets-1; larger samples go to an overflow bin. *)

val add : t -> int -> unit
(** @raise Invalid_argument on a negative bucket index. *)

val add_many : t -> int -> int -> unit
(** [add_many t bucket n] adds [n] samples to [bucket], as [n] calls
    of {!add} would.
    @raise Invalid_argument on a negative bucket index or count. *)

val count : t -> int -> int
val total : t -> int
val overflow : t -> int
val buckets : t -> int

val fraction : t -> int -> float
(** Fraction of all samples (including overflow) in a bucket. *)

val mean : t -> float
(** Mean bucket index of non-overflow samples; [nan] when empty. *)

val to_fractions : t -> float array

val pp : Format.formatter -> t -> unit
