(** RCM sandwich bounds for CAN on a general dim-dimensional torus
    (N = side^dim).

    The exact Markov chain depends on the order dimensions finish, so
    instead of one Q(m) the analysis brackets routing success between
    the tree-like lower bound (one option per hop) and the
    all-dimensions-available upper bound; at side = 2 the upper bound
    coincides with Eq. 2 (the paper's hypercube) and is exact. *)

val population : dim:int -> side:int -> float array
(** n(h) indexed by distance h (index 0 is the node itself); computed
    by per-dimension convolution and summing to N. Test hook: the bounds
    below show only sums over it, and the tests check it entry by
    entry. *)

val routability_lower : dim:int -> side:int -> q:float -> float
val routability_upper : dim:int -> side:int -> q:float -> float
