(** Experiment A8 — CAN's dimension knob.

    The paper analyses CAN at its hypercube extreme (2 nodes per
    dimension); real CAN deployments pick dim << log2 N. This sweep
    holds N fixed and varies (dim, side), pairing simulation with the
    RCM sandwich bounds of {!Rcm.Torus_bounds} (exact at side = 2). *)

type config = {
  configurations : (int * int) list;
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

val default_config : config

val run : config -> Series.t
(** Columns lo/sim/up per configuration. *)

