(** RCM analysis of the tree (Plaxton) geometry — section 4.3.1.

    n(h) = C(d,h); every hop requires the unique neighbour correcting
    the leftmost differing bit, so Q(m) = q and p(h,q) = (1-q)^h. *)

val log_population : d:int -> h:int -> float
(** log n(h) = log C(d,h). @raise Invalid_argument outside 1..d. *)

val success_probability : q:float -> h:int -> float
(** p(h,q) = (1-q)^h. *)

val routability : d:int -> q:float -> float
(** Closed form r = ((2-q)^d - 1) / ((1-q)·2^d - 1). Defined as 0 when
    fewer than one node survives on average. Test hook: the closed form
    the tests check the engine, {!Digits.tree_routability} at base 2 and
    simulated tree routability against. *)

val spec : Spec.t
