(** Process resident-set size, read from the kernel's accounting
    ([/proc/self/status]).

    Unlike [Gc.stat], this includes memory the OCaml heap does not
    manage — notably the Bigarray blocks of flat overlays — which is
    what perfbench's [peak_rss_mb] needs to report a run's real
    footprint. Linux-only: elsewhere the reader returns [None]. *)

val peak_kb : unit -> int option
(** Peak resident set ([VmHWM]) in KiB since process start. *)
