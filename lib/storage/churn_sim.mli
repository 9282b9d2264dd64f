(** Data availability under session churn.

    Nodes alternate alive sessions and offline gaps drawn from
    {!Sim.Lifetime} distributions, on {!Sim.Session_churn.drive}'s
    event loop; the overlay's contact structure is static
    (tables are not repaired — the storage layer, not the routing
    layer, is the system under test here) while the alive-mask evolves.
    At each measurement epoch a batch of quorum reads with read-repair
    runs against the {e current} holder sets, so re-replication
    performed at earlier epochs genuinely protects later reads: the
    availability-vs-churn-rate curve shows the repair protocol working,
    while [survival] (counted against the immutable initial placement)
    shows what would remain without it.

    One sequential PRNG stream drives everything: deterministic given
    [seed]. *)

type config = {
  bits : int;
  nodes : int;
  keys : int;
  reads : int;  (** reads per measurement epoch *)
  zipf_s : float;
  quorum : Quorum.t;
  session : Sim.Lifetime.t;  (** alive-session length distribution *)
  gap : Sim.Lifetime.t;  (** offline-gap length distribution *)
  warmup : float;  (** first measurement epoch *)
  measurements : int;
  spacing : float;  (** epoch spacing *)
}

val validate : config -> unit
(** @raise Invalid_argument on out-of-range fields, including a warmup
    that is not finite and >= 0 or a spacing that is not finite and
    > 0. *)

val churn_rate : config -> float
(** Session turnover per node per unit time:
    1 / (mean session + mean gap). *)

type measurement = {
  time : float;
  alive_fraction : float;
  availability : float option;
      (** quorum-read fraction this epoch; [None] when no node was
          alive to read from — never fabricated as 0. *)
  survival : float;  (** surviving-key fraction vs the initial placement *)
}

type result = {
  measurements : measurement list;
  reads : Store.tally;  (** the reads of every epoch, and their routes *)
  availability : float option;  (** aggregate over all epochs *)
  survival : float;  (** mean over epochs *)
  mean_alive : float;
  load_max : int;
  load_mean : float;
  load_p99 : int;
  events : int;
}

val run : Rcm.Geometry.t -> config -> seed:int -> result
(** @raise Invalid_argument on invalid config or a hypercube
    geometry. *)
