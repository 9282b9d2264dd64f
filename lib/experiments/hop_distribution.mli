(** Experiment E9 — the full hop-count distribution of delivered
    messages: chain-predicted pmf (absorption-time distribution mixed
    over n(h)·p(h)) against the simulated histogram. Exact for tree and
    hypercube; upper-shifted for the phase-skipping geometries. *)

type config = { bits : int; q : float; trials : int; pairs : int; seed : int }

val default_config : config

val run : config -> Rcm.Geometry.t -> Series.t
(** Two columns (chain, sim) over the hop-count axis. *)
