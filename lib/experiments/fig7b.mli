(** Experiment F7B — Fig. 7(b): routability versus system size at fixed
    q = 0.1 for all five geometries. Tree and Symphony decay
    monotonically toward zero; hypercube, XOR and ring stay highly
    routable out to billions of nodes. *)

type config = { q : float; ds : int list }

val default_config : config

val run : config -> Series.t

