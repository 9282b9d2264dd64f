(** Experiment F6B — Fig. 6(b): ring (Chord) percentage of failed paths
    versus q at N = 2^16; the analytical curve is an upper bound on the
    failed percentage (section 4.3.3). *)

type config = Fig6a.config = {
  bits : int;
  qs : float list;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

val run : ?pool:Exec.Pool.t -> config -> Series.t
(** Bit-identical output for every pool size; the simulation column
    reuses one overlay build per trial across the whole q grid. *)

