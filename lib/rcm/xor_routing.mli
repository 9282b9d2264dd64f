(** RCM analysis of the XOR (Kademlia) geometry — section 4.3.2.

    Bucket neighbours are chosen by matching a prefix, flipping one bit
    and randomising the rest, so n(h) = C(d,h) as for the tree; unlike
    the tree, a dead optimal neighbour can be bypassed by correcting a
    lower-order bit, giving the two-dimensional Markov chain of
    Fig. 5(b). *)

val log_population : d:int -> h:int -> float

val phase_failure : q:float -> m:int -> float
(** Q(m) of Eq. 6 in exact form. *)

val success_probability : q:float -> h:int -> float
(** p(h,q) = prod_{m=1..h} (1 - Q(m)). *)

val spec : Spec.t
