(** Experiment E6 — non-fully-populated identifier spaces (the paper's
    section-6 future work).

    A fixed population is embedded in identifier spaces of growing
    size, so occupancy drops from 100% to ~1.5%; each sparse simulation
    is paired with the fully-populated analysis at the *effective*
    dimension d_eff = log2(population). Small spread across id-space
    sizes supports the paper's working assumption that full population
    is not load-bearing. *)

type config = {
  nodes : int;
  bits_list : int list;
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

val default_config : config

val run : ?pool:Exec.Pool.t -> config -> Rcm.Geometry.t -> Series.t
(** One analysis column at d_eff plus one simulation column per
    id-space size. Supported geometries: tree, xor, ring, symphony. *)

