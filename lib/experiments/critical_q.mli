(** Experiment T2 — critical failure probabilities.

    For each geometry, the largest q keeping analytical routability
    above a target, at deployment scale and in the asymptotic stand-in
    (d = 100) — the operating envelope the paper's figures imply. *)

type row = { geometry : Rcm.Geometry.t; d : int; target : float; q_critical : float option }

val critical_q : Rcm.Geometry.t -> d:int -> target:float -> float option
(** Bisection on the (monotone) routability curve; [None] when the
    target is unattainable even as q -> 0, [Some 1.] when it holds for
    every q. @raise Invalid_argument for targets outside (0,1). *)

val run : ?ds:int list -> ?targets:float list -> unit -> row list

val pp_rows : Format.formatter -> row list -> unit
