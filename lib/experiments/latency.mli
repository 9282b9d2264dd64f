(** Experiment E7 — hop counts (routing latency) of delivered messages.

    The same Markov chains that give the routability figures also
    predict hop counts: conditioning the chain on successful absorption
    yields E[hops | delivered] per distance, mixed over n(h)·p(h).
    Exact for tree and hypercube (one hop = one phase); an upper bound
    for XOR, ring and Symphony, whose real routes skip phases. *)

type config = { bits : int; qs : float list; trials : int; pairs : int; seed : int }

val default_config : config

val chain_for : Rcm.Geometry.t -> d:int -> q:float -> h:int -> Markov.Routing_chains.routing
(** The routing chain for a phase-h target of the geometry (shared with
    {!Hop_distribution}). *)

val predicted_hops : Rcm.Geometry.t -> d:int -> q:float -> float
(** Chain-predicted mean hop count of delivered messages to a uniform
    random target. [nan] when nothing is deliverable. *)

val run_all : config -> Series.t
(** All five geometries, interleaved chain/sim columns. *)
