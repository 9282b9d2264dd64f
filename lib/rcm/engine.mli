(** The generic reachable component method (section 4.1).

    Given a geometry {!Spec.t} — its distance distribution n(h) and
    per-phase failure probability Q(m) — this module carries out RCM
    steps 3-5: p(h,q) as a product of phase successes (Eq. 5), the
    expected reachable-component size E[S] (step 4) and the routability
    r = E[S] / ((1-q)·2^d - 1) (Eq. 1). All sums run in the log domain,
    so the d = 100 asymptotic evaluation of Fig. 7(a) is exact to float
    precision. *)

val success_probability : Spec.t -> d:int -> q:float -> h:int -> float
(** p(h,q): probability of successfully routing to a target h
    hops/phases away. *)

val expected_reachable : Spec.t -> d:int -> q:float -> float
(** E[S] = sum_h n(h)·p(h,q): expected reachable-component size of a
    surviving root node. *)

val routability : Spec.t -> d:int -> q:float -> float
(** Eq. 1. In [0,1]; equals 1 at q = 0 and 0 when no pairs survive. *)

val failed_paths_percent : Spec.t -> d:int -> q:float -> float
(** 100·(1 - r): the y-axis of Figs. 6 and 7(a). *)

