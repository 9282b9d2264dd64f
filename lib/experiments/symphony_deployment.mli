(** Experiment A9 — Symphony: basic geometry versus deployed protocol.

    The paper deliberately analyses basic geometries; Symphony as
    shipped uses bidirectional links (incoming shortcuts included) and
    routes toward the destination from either side. This ablation
    quantifies the gap at matched (k_n, k_s). *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val run : ?k_n:int -> ?k_s:int -> config -> Series.t
(** Columns: analysis(uni), sim(uni), sim(bidir). *)

