(** Binomial coefficients, exactly and in log space.

    The distance distributions n(h) of the tree, hypercube and XOR
    geometries are C(d, h); Fig. 7(a) needs them at d = 100. *)

val log_choose : int -> int -> float
(** [log_choose n k] is log C(n,k); [neg_infinity] when [k > n].
    @raise Invalid_argument on negative arguments. *)

val choose_float : int -> int -> float
(** [choose_float n k] is C(n,k) as a float, by the multiplicative
    formula (accurate to a few ulps for d <= 1000). *)

val choose_exn : int -> int -> int
(** [choose_exn n k] is C(n,k) as an exact int. Test hook: the exact
    reference the tests check {!choose_float} against.
    @raise Failure on overflow. *)
