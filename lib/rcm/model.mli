(** Dispatch from a {!Geometry.t} to its RCM analysis: the paper's
    closed forms, and for ReCord the digit-granular XOR spec
    ({!Digits.xor_spec}). *)

val spec_of_geometry : Geometry.t -> Spec.t

val routability : Geometry.t -> d:int -> q:float -> float
(** Analytical routability r(N = 2^d, q) of the geometry. *)

val failed_paths_percent : Geometry.t -> d:int -> q:float -> float

val success_probability : Geometry.t -> d:int -> q:float -> h:int -> float

val expected_reachable : Geometry.t -> d:int -> q:float -> float

val analysis_kind : Geometry.t -> [ `Exact_model | `Lower_bound ]
(** Whether the paper's chain model is exact for the basic geometry or a
    routability lower bound (ring, ReCord). *)
