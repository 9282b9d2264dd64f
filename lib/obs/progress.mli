(** Live progress line for long sweeps.

    A single process-wide reporter, like {!Metrics} and {!Trace}: the
    sweep engine ([Sim.Sweep.run], behind every Monte-Carlo sweep)
    declares a phase with its task total, every completed task {!tick}s
    it — from whichever domain ran the task — and the supervisor
    ([Exec.Pool.supervised]) reports retries and failures. The
    reporter repaints one carriage-return line on stderr, rate-limited
    to a few frames per second, showing completed/total, throughput,
    the current grid group (e.g. [q=0.30]), a per-group and an overall
    ETA, and failed/retried counts.

    {b Off by default; observation-only.} The default {!mode} is [Off]
    so library and test use never prints anything; the CLI selects
    [Auto] (enabled only when stderr is a TTY) or forces [On]/[Off]
    with [--progress]/[--no-progress]. Every entry point is gated on
    one atomic load when inactive. The reporter writes only to its own
    channel (stderr), reads only the wall clock, and never touches a
    PRNG stream: stdout and every exported artefact are byte-identical
    with progress on or off (pinned by [test/test_obs.ml] and
    [test/test_cli.ml]). *)

type mode =
  | Auto  (** enabled iff the output channel is a TTY *)
  | On
  | Off

val set_mode : mode -> unit
(** Select when phases may render (default [Off]). Takes effect at the
    next {!start}. *)

val set_channel : out_channel -> unit
(** Redirect rendering (default [stderr]). The TTY check of [Auto]
    mode is performed against this channel. Test hook: lets the tests
    capture the rendered line in a file. *)

val start :
  ?label:string -> ?groups:(string * int) list -> total:int -> unit -> unit
(** Begin a phase of [total] tasks. [groups] optionally names the grid
    groups the tasks fall into with each group's task count (the
    estimator passes one group per q value, [trials] tasks each), which
    enables the per-group ETA. Starting a new phase while one is active
    replaces it — sequential sweeps (one per geometry) each get a fresh
    line. No-op when the mode (or a non-TTY channel under [Auto]) says
    so. *)

val tick : ?group:string -> unit -> unit
(** One task finished (possibly from a worker domain). [group] selects
    the grid group for the per-group display. Rendering is rate-limited
    internally; most ticks cost a mutex and a clock read. *)

val note_retry : unit -> unit
(** A supervised task attempt failed and is being retried. *)

val note_failed : unit -> unit
(** A supervised task exhausted its retries. *)

val finish : unit -> unit
(** End the phase and erase the line (so summaries printed afterwards
    start on a clean line). Idempotent; no-op when inactive. *)

(**/**)

val safe_rate : completed:int -> elapsed:float -> float
(** The throughput estimate the rendered line and its ETAs are built
    from: [completed / elapsed], except that a zero, near-zero (below
    one microsecond), negative or non-finite [elapsed] — and any
    quotient that overflows to a non-finite value — yields [0.0], the
    "no estimate yet" sentinel rendered as ["-:--"]. Test hook: the
    line shows the rate rounded, and the regression tests check the
    guards exactly. *)
