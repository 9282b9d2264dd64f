(** Session and gap length distributions for churn simulations.

    Each distribution is parameterised by its {e mean}, so a sweep over
    mean session time compares shapes at equal load; the conventional
    scale parameter is derived internally. Exponential is the
    memoryless baseline; Pareto and Weibull are the standard
    heavy-tailed fits to measured peer session times. *)

type shape =
  | Exponential
  | Pareto of float  (** tail exponent alpha, finite and > 1 *)
  | Weibull of float  (** shape parameter, finite and > 0; < 1 is heavy-tailed *)

type t

val exponential : mean:float -> t

val pareto : alpha:float -> mean:float -> t
(** Scale x_m = mean·(alpha-1)/alpha.
    @raise Invalid_argument unless [alpha] is finite and > 1 (a finite
    mean needs alpha > 1). *)

val weibull : shape:float -> mean:float -> t
(** Scale = mean / Gamma(1 + 1/shape).
    @raise Invalid_argument unless [shape] is finite and > 0. *)

val mean : t -> float
val shape : t -> shape

val draw : t -> Prng.Splitmix.t -> float
(** One sample by inverse-CDF; consumes exactly one uniform draw for
    every shape, so schedules stay comparable across shapes at a given
    seed. *)

val of_string : string -> (shape, string) result
(** Parses ["exp"], ["pareto:ALPHA"], ["weibull:SHAPE"], with the
    same range checks as {!pareto} and {!weibull}. *)

val shape_to_string : shape -> string
(** The {!of_string} spelling of a shape. Its parameter is printed with
    the fewest significant digits (15, 16 or 17) that read back to the
    same float, so [of_string (shape_to_string s)] returns [s] bit for
    bit and distinct shapes never share a checkpoint key. *)

