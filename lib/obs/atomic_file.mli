(** Atomic file writes: write-to-temp then [Sys.rename].

    Every artefact this repository leaves on disk (figure CSVs, the
    gnuplot driver, manifests, JSONL traces and checkpoints)
    must either exist in full or not at all: an interrupted or crashed
    run may abandon work, but it must never leave a truncated file that
    a later tool half-parses. POSIX [rename] within one directory is
    atomic, so readers only ever observe the previous complete file or
    the new complete file. *)

val temp_path : string -> string
(** [temp_path path] is the sibling temporary name ([path ^ ".tmp"])
    that {!write} stages into before renaming. Exposed so cleanup code
    and tests can name it. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path emit] opens [temp_path path], runs [emit] on the
    channel, closes it and renames it onto [path]. If [emit] (or the
    close) raises, the temporary file is removed and [path] is left
    untouched — the failure is re-raised. *)
