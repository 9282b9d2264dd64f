(** Experiment A1 — reachability versus raw connectivity.

    Section 1: "because of how messages get routed ... all pairs
    belonging to the same connected component need not be reachable".
    This ablation measures both quantities on identical failed overlays,
    exhibiting the gap (largest for tree and Symphony). *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val run : ?pool:Exec.Pool.t -> config -> Rcm.Geometry.t -> Series.t
(** Columns: pair-connectivity, giant-component fraction, routability,
    and their gap, over the q grid. Bit-identical for every pool size;
    overlay builds are shared across the sweep (trials builds total). *)

