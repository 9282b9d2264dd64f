(** RCM analysis of the hypercube (CAN) geometry — section 4.2.

    n(h) = C(d,h); with h - i useful neighbours after i corrections,
    Q(m) = q^m and p(h,q) = prod_{m=1..h} (1 - q^m) (Eq. 2). *)

val success_probability : q:float -> h:int -> float
(** Eq. 2. The worked example of Fig. 3 is
    [success_probability ~q ~h:3 = (1-q^3)(1-q^2)(1-q)]. *)

val spec : Spec.t
