(** Scalability classification of routing geometries (section 5).

    A geometry is scalable iff its routability converges to a non-zero
    value as N goes to infinity for a non-trivial failure probability
    (Definition 2); by Theorem 1 this reduces to the convergence of
    sum Q(m). *)

type verdict =
  | Scalable of { series_sum : float; asymptotic_success : float }
      (** [series_sum] is sum Q(m); [asymptotic_success] is
          lim_{h->inf} p(h,q) *)
  | Unscalable of { reason : string }

val pp_verdict : Format.formatter -> verdict -> unit

val paper_classification : Geometry.t -> [ `Scalable | `Unscalable ]
(** The paper's symbolic result (sections 5.1-5.5); ReCord, whose
    Q(m) is XOR's, is scalable. *)

val classify_spec : ?d:int -> Spec.t -> q:float -> verdict
(** Numeric classification of an arbitrary geometry description — the
    entry point for screening *proposed* architectures, per the paper's
    concluding remarks. Inconclusive numerics are reported as
    unscalable with an explanatory reason. *)

val classify : ?d:int -> Geometry.t -> q:float -> verdict
(** Numeric classification of sum Q(m) at failure probability [q]
    (term test for divergence, sustained-ratio test for convergence).
    [d] matters only for geometries whose Q depends on it (Symphony);
    default 100. *)

val asymptotic_success : ?d:int -> Geometry.t -> q:float -> float
(** lim_{h->inf} p(h,q) = prod (1 - Q(m)); 0 for unscalable
    geometries. *)

val agrees_with_paper : ?d:int -> Geometry.t -> q:float -> bool
(** True when the numeric verdict matches the paper's symbolic one. *)
