(** Deterministic domain pool for Monte-Carlo trial execution.

    The pool runs [n] independent tasks (typically simulation trials)
    across OCaml 5 domains and returns their results indexed by task
    number. Scheduling is static — the index range is cut into one
    contiguous block per domain, with no work stealing — so the only
    thing parallelism changes is wall-clock time: results are collected
    by index and reduced in index order, making every outcome
    bit-identical regardless of the domain count (including 1).

    Determinism contract for callers: a task must derive all of its
    randomness from its own index (e.g. a per-trial PRNG seed taken
    from a pre-generated array, as [Sim.Trial.seeds] does) and must
    not mutate state shared with other tasks. Tasks must not submit
    nested work to the pool they run on.

    Sharing read-only data with tasks is free: OCaml 5 domains share
    one heap, so closing over a large immutable structure (an overlay
    table, say) hands every domain the same physical object — no
    copying, no serialisation. Flat overlays ([Overlay.Flat]) go one
    step further: their Bigarray blocks live outside the OCaml heap
    entirely, so sharing them across domains also adds nothing to any
    domain's GC marking work.

    When {!Obs.Metrics} is enabled, every [map] records per-member
    task counts ([pool/domain<i>/tasks], member 0 being the caller),
    queue wait ([pool/queue_wait_s]) and block runtimes
    ([pool/block_s], from which the summary derives the imbalance
    ratio). Observation only: scheduling, results and PRNG streams are
    identical with metrics on or off. *)

type t

val default_domains : unit -> int
(** Worker count used when [create] is given no [domains]: the
    [DHT_RCM_JOBS] environment variable when set to an integer >= 1,
    otherwise [Domain.recommended_domain_count ()]. A set-but-invalid
    [DHT_RCM_JOBS] (zero, negative, or not an integer) is rejected
    with a one-line warning on stderr naming the rejected value, and
    the recommended count is used instead. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] is [[| f 0; f 1; ...; f (n-1) |]], with the index
    range split into [size pool] contiguous blocks executed in
    parallel. The caller runs block 0 itself. Exceptions raised by
    tasks are re-raised on the caller after all blocks finish. *)

(** {1 Supervised execution}

    The supervised mode is how a long sweep survives individual trial
    failures and interruption: a per-task exception is captured as a
    {!Failed} outcome rather than aborting the whole map, a failing
    task is retried up to [retries] times, and {!Cancel} requests are
    honoured at task boundaries ({!Cancelled} outcomes for tasks that
    never started). Because tasks derive all state from their index
    (the pool's standing determinism contract), a retry replays the
    exact PRNG stream of the failed attempt — a transient fault
    produces a bit-identical result one attempt later.

    When {!Obs.Metrics} is enabled, supervisors count
    [supervisor/retries], [supervisor/failed_trials] and
    [supervisor/cancelled]; {!Obs.Trace} receives [supervisor/retry]
    and [supervisor/failed] events naming the task and error. Retries
    and exhausted tasks are also reported to {!Obs.Progress} (the live
    progress line's failed/retried counters); like the rest of the
    instrumentation this is observation-only. *)

type 'a outcome =
  | Done of 'a
  | Failed of { attempts : int; error : string }
      (** Every attempt raised; [attempts] = retries + 1, [error] is
          the last exception rendered by [Printexc.to_string]. *)
  | Cancelled
      (** The task was skipped (cancellation already requested) or
          observed {!Cancel.Cancelled} while running. *)

val supervised : ?retries:int -> task:(attempt:int -> int -> 'a) -> int -> 'a outcome
(** [supervised ~retries ~task k] runs [task ~attempt k] (attempts
    numbered from 1) with the retry/cancellation policy above. Usable
    without a pool — the sequential execution path supervises tasks
    with exactly the same policy as the parallel one. [Sim.Sweep.run]
    runs every sweep task through it.
    @raise Invalid_argument if [retries < 0]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] starts a pool of [domains - 1] worker
    domains (the caller participates as the remaining member; the
    default is {!default_domains}), runs [f] on it and joins the
    workers on exit, including on exceptions. [domains = 1] spawns
    nothing and makes every [map] run inline on the caller. The pool
    must not be used after [f] returns ([map] raises
    [Invalid_argument]).
    @raise Invalid_argument if [domains < 1]. *)
