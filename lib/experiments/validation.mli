(** Experiments V1 and V2 — machine checks of the paper's derivations.

    V1 solves the routing Markov chains of Figs. 4, 5(b), 8 exactly and
    compares them against the closed-form p(h,q) of section 4.3; the
    agreement is at float precision.

    V2 compares analytical routability with the Monte-Carlo simulator:
    exact for tree and hypercube, a lower bound for ring, and a
    quantified idealisation gap for XOR (bucket-suffix randomisation)
    and Symphony (shortcut overshoot near the destination). *)

type chain_row = {
  label : string;
  h : int;
  q : float;
  closed_form : float;
  chain : float;
  abs_error : float;
}

val chain_vs_closed :
  ?hs:int list -> ?qs:float list -> ?symphony_d:int -> unit -> chain_row list

val max_chain_error : chain_row list -> float

type sim_status =
  [ `Matches | `Bound_holds | `Gap of float | `Violation of float | `No_data ]
(** [`No_data]: the simulation attempted no pairs (every trial had
    fewer than two survivors), so there is nothing to compare — it is
    reported as such, never as a spurious violation or match. *)

type sim_row = {
  geometry : Rcm.Geometry.t;
  q : float;
  analysis : float;
  simulated : Stats.Binomial_ci.t option;  (** [None] iff status is [`No_data] *)
  status : sim_status;
}

val sim_vs_analysis :
  ?bits:int ->
  ?qs:float list ->
  ?trials:int ->
  ?pairs_per_trial:int ->
  ?seed:int ->
  unit ->
  sim_row list

val sim_violations : sim_row list -> sim_row list
(** Rows whose exactness/bound expectation failed — empty on a correct
    build. *)

val pp_chain_rows : Format.formatter -> chain_row list -> unit
val pp_sim_rows : Format.formatter -> sim_row list -> unit
