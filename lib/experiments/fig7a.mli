(** Experiment F7A — Fig. 7(a): percentage of failed paths versus q in
    the asymptotic limit, evaluated (as in the paper) at N = 2^100 for
    all five geometries. Tree and Symphony become step functions; the
    three scalable geometries barely move from their N = 2^16 curves. *)

type config = { bits : int; qs : float list }

val default_config : config

val run : config -> Series.t

