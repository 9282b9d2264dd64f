(** One-call design brief for a geometry at a deployment size:
    scalability verdict, routability curve, operating envelope
    (critical q at 0.9/0.5) and expected hop counts. Backs
    [dhtlab analyze --full]. *)

type t = {
  geometry : Rcm.Geometry.t;
  bits : int;
  classification : Rcm.Scalability.verdict;
  agrees_with_paper : bool;
  routability_curve : (float * float) list;
  critical_q_90 : float option;
  critical_q_50 : float option;
  expected_hops_at_q0 : float;
  expected_hops_at_q20 : float;
  analysis_kind : [ `Exact_model | `Lower_bound ];
}

val build : ?bits:int -> ?qs:float list -> Rcm.Geometry.t -> t

val pp : Format.formatter -> t -> unit
