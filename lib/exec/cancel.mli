(** Cooperative cancellation for long sweeps.

    A single process-wide flag, set either programmatically
    ({!request}) or by the SIGINT/SIGTERM handlers that {!install}
    registers. Nothing is interrupted preemptively: {!Pool.supervised},
    which every sweep runs its tasks under ([Sim.Sweep.run]), consults
    the flag at task boundaries, so a cancelled sweep stops cleanly
    between tasks with every completed one intact — the front end can
    then flush checkpoints, metrics and traces before exiting.

    The flag is an [Atomic.t]: safe to read from any domain, and safe
    to set from an OCaml signal handler. *)

exception Cancelled
(** Raised by the sweep engine ([Sim.Sweep.run]) after it has observed
    the flag, flushed its checkpoint and unwound — the front end
    catches it, reports, and exits with {!exit_code}. *)

val exit_code : int
(** The distinct exit code for a cancelled run: 130 (128 + SIGINT),
    also used for SIGTERM so "interrupted" is one observable status. *)

val install : unit -> unit
(** Register SIGINT and SIGTERM handlers that set the flag. A second
    signal while the flag is already set exits immediately with
    {!exit_code} (escape hatch when a trial wedges). Idempotent; call
    from the main domain before starting work. *)

val request : unit -> unit
(** Set the flag programmatically. Test hook: lets a test cancel a
    sweep at a chosen task boundary, which no signal can time. *)

val requested : unit -> bool
(** One atomic load; cheap on any hot path. *)

val reset : unit -> unit
(** Clear the flag. Does not uninstall signal handlers. Test hook:
    lets the tests that cancel a sweep run further sweeps in the same
    process. *)
