(** E13: the degree / hop-count tradeoff across geometries.

    For each geometry, measures the per-node routing-table size and
    the mean delivered hop count (chain-predicted via
    {!Latency.predicted_hops} and Monte-Carlo simulated), plus the
    routability point estimate, at one failure probability. Rows are
    sorted by degree, so the resulting series reads as a tradeoff
    curve. The canonical use is the ReCord base sweep —
    [record:h=2,4,16] trades table size for fewer, fatter phases —
    but the module is geometry-agnostic. *)

type config = { bits : int; q : float; trials : int; pairs : int; seed : int }

val default_config : config
(** [bits = 12], [q = 0.1], 3 trials of 1500 pairs. *)

val quick_config : config
(** Smaller smoke variant ([bits = 8] — divisible by digit widths up
    to 4, so [record:h=16] still builds — 500 pairs). *)

type row = {
  geometry : Rcm.Geometry.t;
  degree : int;  (** routing-table entries per node *)
  chain_hops : float;  (** chain-predicted mean delivered hops *)
  sim_hops : float;  (** simulated mean delivered hops *)
  routability : float;  (** simulated delivery fraction (nan without data) *)
}

val run : config -> Rcm.Geometry.t list -> Series.t
(** The rows as a plottable series: x = degree, columns
    [hops(chain)], [hops(sim)], [routability]. *)
