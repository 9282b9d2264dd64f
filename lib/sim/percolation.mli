(** Connectivity (percolation) versus routability on identical failed
    overlays — experiment A1.

    Section 1 of the paper motivates RCM by noting that percolation
    theory only bounds connectivity: pairs in one connected component
    need not be mutually routable. This experiment measures both
    quantities on the same failure samples. *)

type trial = {
  connectivity : Graph.Components.report;
  routability : float;  (** [nan] when the trial had fewer than two survivors *)
  routed_pairs : int;  (** [0] when the trial had fewer than two survivors *)
}

type report = {
  geometry : Rcm.Geometry.t;
  bits : int;
  q : float;
  trials : trial list;
  mean_pair_connectivity : float;
      (** Over the trials with two survivors; [nan] when none had. *)
  mean_giant_fraction : float;
      (** Over the trials with a survivor; [nan] when none had. *)
  mean_routability : float;
      (** Over the trials that routed; [nan] when none did. *)
}

val run :
  ?pool:Exec.Pool.t ->
  ?cache:Overlay.Table_cache.t ->
  ?trials:int ->
  ?pairs:int ->
  ?seed:int ->
  bits:int ->
  q:float ->
  Rcm.Geometry.t ->
  report
(** Deterministic in [seed] alone: per-trial generators are derived by
    index and trial results reduced in index order, so the report is
    bit-identical for every [pool] size and with or without [cache].
    [cache] shares overlay builds across calls with the same seed (e.g.
    the points of a q-sweep). Trials run on {!Sweep.grid}.
    @raise Invalid_argument if [trials < 1] or [pairs < 1].
    @raise Failure when a trial raises (see {!Sweep.grid}). *)

val routing_gap : report -> float
(** pair-connectivity minus routability; non-negative up to Monte-Carlo
    noise. *)

val giant_threshold :
  ?pool:Exec.Pool.t ->
  ?cache:Overlay.Table_cache.t ->
  ?trials:int ->
  ?target:float ->
  ?steps:int ->
  ?seed:int ->
  bits:int ->
  Rcm.Geometry.t ->
  float
(** Bisected failure probability at which the giant component stops
    covering [target] (default 0.5) of the survivors — the finite-size
    stand-in for 1 - p_c in Definition 2. Each step averages the giant
    fraction over the trials with a survivor; a [nan] mean (no trial
    had one) counts as not covered. Routing always collapses at or before this
    point. *)
