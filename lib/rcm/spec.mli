(** The two ingredients RCM needs from a routing geometry (section 4.3):
    the distance distribution n(h) and the per-phase failure probability
    Q(m). Everything else — p(h,q), E[S], routability — is generic and
    lives in {!Engine}. *)

type t = {
  geometry : Geometry.t;
  max_phase : d:int -> int;
      (** largest possible hop/phase distance in a 2^d space *)
  log_population : d:int -> h:int -> float;
      (** log n(h): log of the number of nodes at distance h *)
  phase_failure : d:int -> q:float -> m:int -> float;
      (** Q(m): probability of routing failure during the m-th remaining
          phase *)
}

val check_d : int -> unit
val check_q : float -> unit
