(** RCM analysis of the ring (Chord) geometry — section 4.3.3.

    n(h) = 2^(h-1) (nodes at numeric distance in [2^(h-1), 2^h)). The
    Markov model ignores the progress contributed by suboptimal hops, so
    its p(h,q) — and the routability built from it — is a *lower bound*;
    equivalently the predicted percentage of failed paths (Fig. 6(b)) is
    an upper bound. *)

val log_population : d:int -> h:int -> float
(** log n(h) = (h-1)·log 2. *)

val success_probability : q:float -> h:int -> float

val spec : Spec.t
