(** Provenance manifest for a run: one atomic JSON file tying every
    artefact the run produced back to exactly how it was produced.

    A multi-hour sweep leaves CSVs, checkpoints, traces and metrics
    snapshots behind; six months later the only trustworthy answer to
    "which seed/jobs/commit made this file?" is a machine-readable
    record written by the run itself. [dhtlab --manifest FILE] (and
    [dhtlab export], automatically) opens a manifest at startup,
    subcommands {!note} their resolved configuration and
    {!add_artefact} every file they write, and the front end
    {!finish}es it with the exit status — at which point every artefact
    is stat'ed and checksummed (MD5 via [Digest]) and the manifest is
    written atomically via {!Atomic_file}. Artefact paths are recorded
    as given, so a relative one is relative to the ["cwd"] the manifest
    records. The schema is validated by [bench/validate.exe --manifest]
    and pinned in README.

    Process-wide singleton like {!Metrics}/{!Trace}; every entry point
    is a no-op when no manifest was started, so library code can note
    facts unconditionally. Observation-only: nothing here touches a
    PRNG or stdout. *)

type value = String of string | Int of int | Float of float | Bool of bool | Strings of string list

val start : argv:string list -> path:string -> unit
(** Open a manifest to be written at [path]. Captures the wall-clock
    start time, working directory, hostname, OCaml version and
    [argv]. Replaces any manifest already open (the previous one is
    discarded unwritten). *)

val note : string -> value -> unit
(** Record one resolved-configuration fact (seed, jobs, geometry
    parameters, ...). Last write per key wins; insertion order is
    preserved in the file. No-op when inactive. *)

val add_artefact : kind:string -> string -> unit
(** Register a file the run is producing ([kind] is a short tag: "csv",
    "checkpoint", "trace", "metrics", ...). Recorded once per path;
    checksummed at {!finish} time so the hash covers the final bytes.
    Artefacts missing on disk at finish are recorded with
    ["exists": false] and no checksum (e.g. a checkpoint flag on a run
    that completed no trial). No-op when inactive. *)

val finish : exit_status:int -> unit
(** Stamp the end time, [exit_status] and the process's peak resident
    set so far ([peak_rss_kb], KiB, from {!Rss.peak_kb}; omitted where
    that reader returns [None]), checksum the artefacts and atomically
    write the manifest. Closes the singleton (further calls
    are no-ops until the next {!start}). Call it after every sink has
    flushed and renamed its own file, so the recorded checksums match
    what is on disk. *)
