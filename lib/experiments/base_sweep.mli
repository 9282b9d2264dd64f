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

val tree_series : ?pool:Exec.Pool.t -> config -> Series.t
val xor_series : ?pool:Exec.Pool.t -> config -> Series.t

