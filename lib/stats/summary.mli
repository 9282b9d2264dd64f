(** Summary statistics: count, mean, variance, min and max, either
    accumulated sample by sample (Welford) or computed at once from an
    integer histogram ({!of_counts}). *)

type t

val create : unit -> t
val add : t -> float -> unit

val of_counts : int array -> t
(** [of_counts counts] summarises the samples of a histogram: [counts.(h)]
    samples of value [h]. The count and [Σh] are exact integer sums, so
    the mean is their quotient whatever order the counts were added in
    (one rounding while [Σh < 2^53]); the second central moment is
    summed over the bins, never as [Σh² − n·mean²], so it neither
    overflows nor cancels at any sample size. It equals {!add} over
    the expanded samples up to rounding.
    @raise Invalid_argument on a negative count. *)

val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples.
    Test hook: the exact value behind the standard deviation {!pp} prints
    to three digits. *)

val min : t -> float
(** Smallest sample; [nan] when empty. Test hook: the exact value {!pp}
    prints rounded. *)

val max : t -> float
(** Largest sample; [nan] when empty. Test hook: the exact value {!pp}
    prints rounded. *)

val pp : Format.formatter -> t -> unit
