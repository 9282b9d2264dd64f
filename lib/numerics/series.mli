(** Empirical convergence analysis of non-negative series.

    Theorem 1 of the paper (Knopp) reduces the scalability of a routing
    geometry to the convergence of the series of per-phase failure
    probabilities sum Q(m). This module certifies convergence with a
    sustained-ratio test (geometric tail bound) and divergence with the
    term test, and evaluates the associated infinite products. *)

type verdict =
  | Convergent of { partial_sum : float; tail_bound : float; terms_used : int }
  | Divergent of { reason : string; partial_sum : float; terms_used : int }
  | Inconclusive of { partial_sum : float; terms_used : int }

val classify :
  ?max_terms:int -> ?ratio_window:int -> ?tolerance:float -> (int -> float) -> verdict
(** [classify f] analyses sum over m >= 1 of [f m] (terms must be
    non-negative).
    @raise Invalid_argument on negative or nan terms. *)

val partial_sum : terms:int -> (int -> float) -> float
(** [partial_sum ~terms f] is the compensated sum of [f 1 .. f terms]. *)

val infinite_product_one_minus :
  ?max_terms:int -> ?tolerance:float -> (int -> float) -> float
(** [infinite_product_one_minus f] evaluates prod over m >= 1 of
    (1 - f m), i.e. the asymptotic success probability
    lim p(h, q) of Eq. 9. Terms must lie in [0, 1]. *)
