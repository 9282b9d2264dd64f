(** Data availability under static i.i.d. node failure.

    One {!run} evaluates a single (geometry, q) point: [trials]
    independent worlds are built (fresh overlay, key placement and
    alive-mask each), and in each world [reads] quorum reads with
    read-repair are issued from uniformly chosen alive clients
    ({!Store.read_batch}). The
    replica-survival observable is counted once per key per trial
    against the {e initial} placement, so it is exactly
    Binomial(r, 1-q) per key and comparable to
    {!Rcm.Data_availability.replica_survival}.

    Determinism: everything is driven by one sequential stream derived
    from [seed]; a point replays bit-identically. *)

type config = {
  bits : int;  (** identifier space is 2^bits *)
  nodes : int;  (** overlay size (node count, not space size) *)
  keys : int;  (** keys placed per trial *)
  reads : int;  (** reads issued per trial *)
  zipf_s : float;  (** key-popularity exponent *)
  quorum : Quorum.t;
  trials : int;
}

val validate : config -> unit
(** @raise Invalid_argument on out-of-range fields. *)

type result = {
  reads : Store.tally;  (** the reads issued or skipped, and their routes *)
  availability : float option;
      (** quorum_reads / attempted; [None] when nothing was attempted —
          never fabricated as 0. *)
  survival : float;  (** surviving key fraction over all key-trials *)
  mean_alive : float;  (** measured alive fraction over all trials *)
  load_max : int;  (** busiest node's reads served, over all trials *)
  load_mean : float;  (** mean reads served per node *)
  load_p99 : int;  (** 99th percentile of per-node reads served *)
}

val run : Rcm.Geometry.t -> config -> q:float -> seed:int -> result
(** @raise Invalid_argument on invalid config, q outside [0, 1], or a
    hypercube geometry. *)
