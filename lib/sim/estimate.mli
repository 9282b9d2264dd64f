(** Monte-Carlo estimation of routability under the static-resilience
    failure model — the simulation half of the paper's Fig. 6
    comparison. Each trial is a {!Trial.run}; a grid point pools its
    trials' deliveries and adds up their hop histograms, and the hop
    summary is computed once from the sum. *)

type config = {
  geometry : Rcm.Geometry.t;
  bits : int;  (** identifier length d; N = 2^bits nodes *)
  q : float;  (** uniform node failure probability *)
  trials : int;  (** independent overlay + failure samples *)
  pairs_per_trial : int;  (** routed source/destination samples per trial *)
  seed : int;
}

type result = {
  config : config;
  delivered : int;
  attempted : int;
  ci : Stats.Binomial_ci.t option;
      (** Routability estimate with 95% CI. [None] when no pair was
          ever attempted — every trial left fewer than two survivors —
          in which case there is no estimate at all, as opposed to an
          estimate of zero (a fabricated 0/1 interval would present
          "no data" as certainty). *)
  hop_summary : Stats.Summary.t;
      (** hop counts of delivered messages, {!Stats.Summary.of_counts}
          of the trials' summed histograms *)
  mean_alive_fraction : float;
      (** Mean over surviving trials; [nan] when every trial failed. *)
  failed_trials : int;
      (** Trials that raised on every attempt (see {!run_sweep}). The
          estimate covers the surviving trials only, so the CI widens
          honestly with the lost sample size. *)
}

val config :
  ?trials:int ->
  ?pairs_per_trial:int ->
  ?seed:int ->
  bits:int ->
  q:float ->
  Rcm.Geometry.t ->
  config
(** @raise Invalid_argument on non-positive counts or invalid [q]. *)

val run : ?pool:Exec.Pool.t -> ?cache:Overlay.Table_cache.t -> config -> result
(** Deterministic in [config.seed] alone: trial [i] always runs on the
    generator seeded by the [i]-th output of the master stream, and
    trial contributions are reduced in index order, so the result is
    bit-identical for every [pool] size (including no pool — the
    sequential path) and with or without [cache]. [pool] distributes
    trials across domains; [cache] reuses overlay tables across calls
    that share trial seeds (e.g. a q-sweep). A trial that raises is
    counted in [failed_trials], as in {!run_sweep}. *)

val run_sweep :
  ?pool:Exec.Pool.t ->
  ?cache:Overlay.Table_cache.t ->
  ?backend:Overlay.Table.backend ->
  ?retries:int ->
  ?fault:Exec.Fault.t ->
  ?checkpoint:Checkpoint.t ->
  config ->
  float list ->
  (float * result) list
(** [run_sweep cfg qs] is [[(q, run { cfg with q }) | q <- qs]],
    bit-identical to those per-point runs, but flattened into
    [|qs| × trials] independent tasks so the whole grid parallelises
    at once, and — because trial seeds do not depend on [q] — paying
    [trials] overlay builds for the whole sweep when a [cache] is
    supplied instead of [|qs| × trials]. [backend] is ignored: tables
    have one layout, and the argument remains only because the
    benchmark harness in [perfbench/] still passes it.

    Trials run on {!Sweep.run}, under {!Exec.Pool.supervised}: a
    trial exception is retried up to [retries] times (default 0) —
    the retry re-derives its PRNG stream from the trial index, so a
    transient fault replays bit-identically — then recorded as failed,
    surfacing in {!result.failed_trials} instead of aborting the
    sweep. [fault] injects deterministic trial failures before the
    trial touches its PRNG (testing/chaos only). [checkpoint] replays
    the trials the store holds and records each other outcome,
    flushing before return; a resumed sweep produces byte-identical
    results to an uninterrupted one. On cooperative cancellation
    ({!Exec.Cancel.requested}) the sweep flushes the checkpoint and
    raises {!Exec.Cancel.Cancelled} rather than returning partial
    per-q results.
    @raise Invalid_argument if any [q] is not a probability,
    [retries < 0], or a [checkpoint] is given with a seed outside
    ±(2^53 − 1) (the seed is a key field; see
    {!Checkpoint.exact_int}).
    @raise Exec.Cancel.Cancelled when cancellation was requested. *)

val routability : result -> float
(** Point estimate, or [nan] when [ci = None] (no routable pairs to
    measure). [nan] propagates honestly into tables and CSV exports
    (rendered as ["nan"]) rather than masquerading as 0 or 1. *)

val failed_percent : result -> float
(** [100 * (1 - routability)]; [nan] when there is no estimate. *)

val pp_result : Format.formatter -> result -> unit
(** Human-readable one-liner; appends ["[k/n trials failed]"] whenever
    supervision recorded failures, so a degraded estimate is never
    silently presented as a full-sample one. *)

val csv_header : string
(** Column names matching {!to_csv_row}. *)

val to_csv_row : result -> string
(** One CSV row (no trailing newline). Missing estimates render as
    ["nan"]. *)

val to_json : result -> string
(** One JSON object (no trailing newline). Missing estimates render as
    [null]. *)
