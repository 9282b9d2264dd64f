(** Special functions needed by the RCM analytical engine.

    The OCaml standard library has no [lgamma]; this module provides a
    Lanczos implementation accurate to ~1e-13 relative error, plus the
    numerically delicate [log(1 - e^x)] and [log(1 + e^x)] helpers. *)

val log_gamma : float -> float
(** [log_gamma x] is log |Gamma(x)|. Returns [infinity] at the poles
    (non-positive integers) and [nan] on [nan]. *)

val log_factorial : int -> float
(** [log_factorial n] is log(n!). Cached for [n < 257].
    @raise Invalid_argument if [n < 0]. *)

val log1mexp : float -> float
(** [log1mexp x] is log(1 - e^x) for [x <= 0], computed without
    cancellation near both [x = 0] and [x = -inf].
    @raise Invalid_argument if [x > 0]. *)

