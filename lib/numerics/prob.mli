(** Guarded probability arithmetic.

    Every RCM formula is built from powers of the failure probability q
    and geometric sums thereof; these helpers validate their arguments
    and stay accurate at the q -> 0 and q -> 1 endpoints. *)

type t = float

val is_valid : t -> bool
(** [is_valid p] is true iff [p] is finite and in [0, 1]. *)

val clamp : float -> t
(** [clamp x] clips [x] into [0, 1]. @raise Invalid_argument on nan. *)

val pow : t -> int -> t
(** [pow q m] is q^m, exact at the endpoints.
    @raise Invalid_argument if [q] invalid or [m < 0]. *)

val geometric_sum : float -> float -> float
(** [geometric_sum x n] is sum of x^k for k in 0..n-1, computed stably
    near [x = 1]. *)

val at_least_one_of : q:t -> count:int -> t
(** [at_least_one_of ~q ~count] is 1 - q^count: the probability that at
    least one of [count] independent nodes, each failed with probability
    [q], is alive. *)
