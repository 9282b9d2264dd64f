(** RCM analysis of the small-world (Symphony) geometry — section 4.3.4.

    n(h) = 2^(h-1). Each hop completes the current phase with
    probability k_s/d, fails with probability q^(k_n+k_s) and is
    otherwise suboptimal; Q is therefore constant across phases (Eq. 7),
    which makes the geometry unscalable. *)

val success_probability : d:int -> q:float -> k_n:int -> k_s:int -> h:int -> float
(** p(h,q) = (1 - Q)^h. *)

val spec_heterogeneous : q_near:float -> k_n:int -> k_s:int -> Spec.t
(** A spec whose engine-supplied q plays the *shortcut* death role
    while near links die at the fixed [q_near]. *)

val spec : k_n:int -> k_s:int -> Spec.t
(** @raise Invalid_argument unless k_s >= 1 and k_n >= 0. *)

