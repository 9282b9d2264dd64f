(** Thread-safe metrics for the Monte-Carlo engine: named counters,
    log-bucketed histograms and wall-clock timers.

    The registry is global and process-wide so that instrumentation
    points scattered across the overlay, routing, simulation and
    executor layers all land in one place, and a front end ([dhtlab
    --metrics], [--metrics-out], [--metrics-prom]) can render or
    serialise the whole state with one {!snapshot}.

    {b Disabled by default, zero-cost when disabled.} Every mutation
    ({!incr}, {!observe}, {!time}, …) first reads one atomic flag and
    returns immediately when metrics are off — no locking, no clock
    reads, no allocation. Call sites that must build a metric name
    dynamically should guard the construction with {!enabled} so the
    disabled path does not even concatenate strings.

    {b Instrumentation is observation-only.} Nothing in this module
    touches any PRNG, and none of the instrumented code paths may draw
    random values on behalf of metrics: enabling metrics must never
    change a simulation result (pinned by [test/test_obs.ml]). *)

val set_enabled : bool -> unit
(** Turns the whole subsystem on or off (default: off). *)

val enabled : unit -> bool
(** One atomic load; safe and cheap on any hot path. *)

val now : unit -> float
(** Wall-clock seconds (Unix epoch). Returns [0.] when disabled, so
    hot paths can call it unconditionally without paying for the
    clock read. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] interns (find-or-create) the counter called [name].
    Handles are cheap to look up but call sites on hot loops should
    hoist them when the name is static. *)

val incr : ?by:int -> counter -> unit
(** No-op when disabled. Atomic; safe from any domain. *)

val incr_named : ?by:int -> string -> unit
(** [incr_named name] = [incr (counter name)], gated on {!enabled}
    before the registry lookup. *)

val counter_value : counter -> int

(** {1 Histograms and timers}

    Histograms record count / sum / min / max exactly plus a base-2
    log-bucketed distribution (one bucket per binary order of
    magnitude), enough to report approximate quantiles for latency and
    fraction-valued observations without storing samples. A timer is a
    histogram of seconds fed by {!time} / {!observe_span}. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val observe_named : string -> float -> unit

val observe_n : histogram -> float -> times:int -> unit
(** [observe_n h v ~times] records [times] identical observations
    under a single lock acquisition — the per-batch flush of the batch
    routing kernel. For integer-valued observations (hop counts) the
    result is bit-equal to [times] separate {!observe} calls.
    No-op when [times = 0] or disabled.
    @raise Invalid_argument on a negative [times]. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f] and records its wall-clock duration in the
    histogram called [name]. When disabled it is exactly [f ()]. *)

(** {1 Snapshots and rendering} *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;  (** bucket-resolution estimates, exact min/max *)
  p90 : float;
  p99 : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_summary) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Consistent point-in-time view (taken under the registry lock). *)

val reset : unit -> unit
(** Zeroes every registered metric; registration survives, the
    enabled flag is untouched. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable dump of the current snapshot: one line per counter,
    one per histogram, plus derived lines (e.g. the pool imbalance
    ratio [max/mean] of [pool/block_s]) when their inputs exist. *)

val json_of_snapshot : snapshot -> string
(** The snapshot as one JSON object:
    [{"counters": {name: int, ...},
      "histograms": {name: {"count":..,"sum":..,"min":..,"max":..,
                            "mean":..,"p50":..,"p90":..,"p99":..}}}].
    Keys are sorted; floats are finite or rendered as [null]. *)

val to_json : unit -> string
(** [json_of_snapshot (snapshot ())]. *)

val prometheus_of_snapshot : snapshot -> string
(** The snapshot in the Prometheus text exposition format (what the
    node_exporter textfile collector scrapes). Counters become
    [dhtlab_<name>_total] counter families; histograms become summary
    families with [quantile="0.5"|"0.9"|"0.99"] samples plus [_sum] and
    [_count]. Internal names are sanitised to legal metric names
    ([/ -> _], "dhtlab_" prefix) and a trailing ["[k=v]"] suffix (the
    per-q latency series) becomes a real [k="v"] label, so a q-grid
    stays one metric family. Non-finite values render as
    [NaN]/[+Inf]/[-Inf], which the format supports natively. *)

val to_prometheus : unit -> string
(** [prometheus_of_snapshot (snapshot ())]. *)
