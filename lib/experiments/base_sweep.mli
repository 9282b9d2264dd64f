(** Experiment A7 — identifier base sweep (section 3's "any other base
    besides 2 can be used", i.e. Pastry's b parameter).

    Same network size, wider digits: routes shorten from d to d/group
    phases, which substantially improves the unscalable tree geometry's
    finite-size resilience (it stays unscalable: Q(m) = q is still
    constant). Analysis via {!Rcm.Digits} against simulation over
    {!Overlay.Digit_table}. *)

type config = {
  bits : int;
  groups : int list;  (** digit widths; base b = 2^group *)
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

val default_config : config

val simulate : config -> mode:[ `Tree | `Xor ] -> group:int -> float -> float
(** Simulated routability at one grid point; [nan] when no trial had
    two survivors. *)

val simulate_sweep :
  ?pool:Exec.Pool.t ->
  config ->
  mode:[ `Tree | `Xor ] ->
  group:int ->
  float list ->
  float array
(** The simulated column over a q grid as one [|qs| × trials] task
    batch; bit-identical to per-point {!simulate} calls for every pool
    size. *)

val tree_series : ?pool:Exec.Pool.t -> config -> Series.t
val xor_series : ?pool:Exec.Pool.t -> config -> Series.t

val tree_monotone_in_base : config -> bool
(** True when analytical tree routability never decreases with the
    digit width across the grid. *)
