(** Experiment A3 — XOR bucket-suffix ablation.

    Separates the two ingredients of Kademlia's bucket construction:
    suffix-preserving contacts realise the Fig. 5(b) chain exactly
    (simulation matches/dominates analysis), while randomised suffixes —
    the real Kademlia — re-randomise low-order bits at every hop and
    land below the analytical curve. Quantifies how far the paper's
    "basic geometry" model sits from each variant. *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val run : config -> Series.t
(** Columns: analysis, det-suffix simulation, rand-suffix simulation. *)

