(** Wilson score confidence intervals for Monte-Carlo success
    proportions (routability estimates). *)

type t

val wilson : ?z:float -> successes:int -> trials:int -> unit -> t
(** [z] defaults to the two-sided 95% normal quantile.
    @raise Invalid_argument when [trials <= 0] or counts inconsistent. *)

val point : t -> float
val lower : t -> float
val upper : t -> float

val contains : t -> float -> bool
(** [contains t p] is true when [p] lies inside the interval. *)

val pp : Format.formatter -> t -> unit
