(** Dispatch from a {!Geometry.t} to its RCM analysis.

    Built-in geometries dispatch to the paper's closed forms. A plugin
    family plugs in through {!register_custom}; geometries of families
    that never register have no analysis, and the analytical entry
    points raise [Invalid_argument] for them. *)

type custom_analysis = {
  spec : (string * int) list -> Spec.t;
      (** RCM spec of the family at the given parameters *)
  kind : [ `Exact_model | `Lower_bound ];
      (** whether the chain model is exact for the basic geometry or a
          routability lower bound *)
  chain : ((string * int) list -> d:int -> q:float -> h:int -> Markov.Routing_chains.routing) option;
      (** per-distance routing chain (Fig. 5 machinery) when the family
          has one; distances [h] run to [spec.max_phase ~d] *)
  classification : [ `Scalable | `Unscalable ] * string;
      (** the family's symbolic scalability verdict (convergence of
          sum Q(m)) and a one-line restatement of the argument *)
}

val register_custom : family:string -> custom_analysis -> unit
(** Registers the analysis of a custom family. Call at module-init
    time, after [Geometry.register_family].
    @raise Invalid_argument if the family is already registered. *)

val spec_of_geometry : Geometry.t -> Spec.t
(** @raise Invalid_argument on a custom geometry with no registered
    analysis. *)

val routability : Geometry.t -> d:int -> q:float -> float
(** Analytical routability r(N = 2^d, q) of the geometry. *)

val failed_paths_percent : Geometry.t -> d:int -> q:float -> float

val success_probability : Geometry.t -> d:int -> q:float -> h:int -> float

val expected_reachable : Geometry.t -> d:int -> q:float -> float

val analysis_kind : Geometry.t -> [ `Exact_model | `Lower_bound ]
(** Whether the paper's chain model is exact for the basic geometry or a
    routability lower bound (ring). *)

val custom_classification : Geometry.t -> ([ `Scalable | `Unscalable ] * string) option
(** The registered symbolic scalability verdict of a custom geometry,
    or [None] for built-ins and unregistered families. *)

val custom_chain :
  Geometry.t -> d:int -> q:float -> h:int -> Markov.Routing_chains.routing option
(** The registered routing chain of a custom geometry at distance [h],
    or [None] for built-ins (which dispatch statically in
    [Experiments.Latency.chain_for]) and chain-less families. *)
