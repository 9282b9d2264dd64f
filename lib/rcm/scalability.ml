open Numerics

type verdict =
  | Scalable of { series_sum : float; asymptotic_success : float }
  | Unscalable of { reason : string }

let is_scalable = function Scalable _ -> true | Unscalable _ -> false

let pp_verdict ppf = function
  | Scalable { series_sum; asymptotic_success } ->
      Fmt.pf ppf "scalable (sum Q = %.6g, lim p(h,q) = %.6g)" series_sum asymptotic_success
  | Unscalable { reason } -> Fmt.pf ppf "unscalable (%s)" reason

(* Section 5: the paper's symbolic classification. ReCord's Q(m) is
   the XOR expression (m useful contacts at m unresolved digits),
   independent of the base, so sum Q(m) converges for every h. *)
let paper_classification = function
  | Geometry.Tree | Geometry.Symphony _ -> `Unscalable
  | Geometry.Hypercube | Geometry.Xor | Geometry.Ring | Geometry.Record _ -> `Scalable

(* Theorem 1 (Knopp): prod (1 - Q(m)) > 0 iff sum Q(m) < infinity. We
   certify the series numerically and, when convergent, evaluate the
   limiting success probability lim_{h->inf} p(h,q). The reference
   dimension [d] only affects geometries whose Q depends on d
   (Symphony); it defaults to the paper's asymptotic stand-in d = 100.
   [classify_spec] works on any {!Spec.t}, so proposed architectures can
   be screened without touching the built-in geometry list (the use the
   paper's conclusion advertises). *)
let classify_spec ?(d = 100) (spec : Spec.t) ~q =
  Spec.check_q q;
  if q = 0.0 then Scalable { series_sum = 0.0; asymptotic_success = 1.0 }
  else begin
    let term m = spec.Spec.phase_failure ~d ~q ~m in
    match Series.classify term with
    | Series.Convergent { partial_sum; _ } ->
        let asymptotic_success = Series.infinite_product_one_minus term in
        Scalable { series_sum = partial_sum; asymptotic_success }
    | Series.Divergent { reason; _ } -> Unscalable { reason }
    | Series.Inconclusive { partial_sum; terms_used } ->
        (* Uncertified either way: report the evidence as divergence
           grounds (constant-rate decay would have been certified). *)
        Unscalable
          {
            reason =
              Printf.sprintf "series inconclusive after %d terms (partial sum %.4g)" terms_used
                partial_sum;
          }
  end

let classify ?(d = 100) geometry ~q =
  Spec.check_q q;
  if q = 0.0 then Scalable { series_sum = 0.0; asymptotic_success = 1.0 }
  else begin
    let spec = Model.spec_of_geometry geometry in
    match classify_spec ~d spec ~q with
    | Scalable _ as verdict -> verdict
    | Unscalable { reason } ->
        (* Inconclusive numerics fall back to the paper's symbolic
           result for the known geometries. *)
        (match paper_classification geometry with
        | `Unscalable -> Unscalable { reason }
        | `Scalable ->
            let term m = spec.Spec.phase_failure ~d ~q ~m in
            Scalable
              {
                series_sum = Series.partial_sum ~terms:400 term;
                asymptotic_success = Series.infinite_product_one_minus term;
              })
  end

let asymptotic_success_spec ?(d = 100) (spec : Spec.t) ~q =
  Spec.check_q q;
  Series.infinite_product_one_minus (fun m -> spec.Spec.phase_failure ~d ~q ~m)

let asymptotic_success ?(d = 100) geometry ~q =
  asymptotic_success_spec ~d (Model.spec_of_geometry geometry) ~q

let agrees_with_paper ?(d = 100) geometry ~q =
  let numeric = is_scalable (classify ~d geometry ~q) in
  let symbolic = paper_classification geometry = `Scalable in
  numeric = symbolic
