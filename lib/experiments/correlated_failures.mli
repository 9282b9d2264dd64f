(** Experiment A6 — independent versus correlated failures.

    The static-resilience model (and all of RCM) assumes i.i.d. node
    failures. This ablation kills the same expected fraction of nodes
    as one contiguous identifier block and measures what the
    correlation does to each geometry: scattered-contact geometries are
    nearly indifferent, ring-structured ones lose their short fallback
    chains. *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val run_all : config -> Series.t
(** All five geometries, interleaved iid/blk columns. *)

