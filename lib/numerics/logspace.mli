(** Arithmetic on non-negative reals represented by their natural log.

    The RCM routability of a geometry at N = 2^100 involves binomial
    coefficients near 1e29 multiplied by tiny success probabilities and
    divided by a 1e30 denominator; doing this in the log domain keeps
    every intermediate exactly representable. A value [x : t] represents
    the real e^x, with [neg_infinity] representing 0. *)

type t = private float

val one : t

val of_log : float -> t
(** [of_log l] is the value whose natural log is [l] (unchecked). *)

val to_float : t -> float
(** [to_float x] is the represented real; underflows to [0.] or overflows
    to [infinity] when outside float range. *)

val div : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is a - b in the represented domain.
    @raise Invalid_argument if [b > a]. *)

val compare : t -> t -> int

val sum_fn : lo:int -> hi:int -> (int -> t) -> t
(** [sum_fn ~lo ~hi f] sums [f i] for [i] in [lo..hi] by a compensated,
    overflow-safe log-sum-exp; 0 when empty. *)
