(** Integer-bucket histograms (hop counts, component sizes). *)

type t

val create : buckets:int -> t
(** Buckets are 0 .. buckets-1; larger samples go to an overflow bin. *)

val add_many : t -> int -> int -> unit
(** [add_many t bucket n] adds [n] samples to [bucket].
    @raise Invalid_argument on a negative bucket index or count. *)

val to_fractions : t -> float array
(** Per bucket, the fraction of all samples (overflow included) that
    fell in it; all 0 when empty. *)
