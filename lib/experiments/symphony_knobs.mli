(** Experiment A2 — Symphony's designer knobs.

    The paper stresses that an unscalable geometry can still be deployed
    at any fixed maximum size by provisioning enough near neighbours and
    shortcuts; this table quantifies the routability bought by each
    (k_n, k_s) setting at N = 2^16. *)

type config = { bits : int; qs : float list; knobs : (int * int) list }

val default_config : config

val run : config -> Series.t

