(** Experiment A4 — Chord finger-placement ablation.

    Compares deterministic fingers (classic Chord, distance exactly 2^i)
    with the randomised placement the analysis section describes
    (uniform in [2^i, 2^(i+1))). Deterministic fingers satisfy the
    chain's m-usable-fingers assumption, making the analysis a true
    lower bound; randomised fingers overshoot near the destination. *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val run : config -> Series.t
(** Columns: analysis, det-fingers simulation, rand-fingers
    simulation. *)

