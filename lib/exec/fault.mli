(** Deterministic fault injection for supervised trials.

    A fault plan makes a seeded pseudo-random subset of task indices
    raise {!Injected} instead of running — the chaos half of the
    fault-tolerance story. Because the failing subset is a pure
    function of [(seed, task index, attempt)], tests, the CI smoke table
    and an interrupted-then-resumed sweep all see the {e same} faults:
    the supervisor's retry and failed-trial accounting can be asserted
    exactly, and a resumed run reproduces the uninterrupted one
    byte-for-byte.

    A plan is spelled [trial:P:SEED] or [trial:P:SEED:ATTEMPTS]
    (CLI [--inject-fault], environment [DHT_RCM_FAULT]):
    each task index fails with probability [P], drawn from a SplitMix
    stream derived from [SEED] and the index alone. [ATTEMPTS]
    (default 1) is how many consecutive attempts of a faulted task
    fail: 1 models a transient fault that a single retry absorbs; a
    value above the retry budget makes the fault persistent, forcing
    the failed-trial path. *)

type t = {
  p : float;  (** per-task failure probability, in [0, 1] *)
  seed : int;  (** seed of the fault plan's own PRNG streams *)
  attempts : int;  (** failing attempts per faulted task, >= 1 *)
}

exception Injected of { task : int; attempt : int }
(** The raised fault. Registered with [Printexc] so supervisors record
    a readable ["injected fault (task _, attempt _)"]. *)

val parse : string -> (t, string) result
(** Parse a [trial:P:SEED[:ATTEMPTS]] spec. *)

val pp : Format.formatter -> t -> unit
(** Prints the spec back in [parse]'s syntax. *)

val of_env : unit -> t option
(** The plan in [DHT_RCM_FAULT], if set and well-formed. A set-but-
    invalid value is rejected with a one-line stderr warning naming the
    value (mirroring [DHT_RCM_JOBS] handling) and yields [None]. *)

val inject : t option -> task:int -> attempt:int -> unit
(** A pure function of the plan, [task] and [attempt]: within the
    plan's attempt budget a task fails on every attempt or on none.
    @raise Injected when the plan fails this task attempt; no-op on
    [None]. *)
