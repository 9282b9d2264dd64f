(* A one-call design brief for a geometry at a deployment size: the
   numbers an engineer choosing a DHT would ask the framework for. *)

type t = {
  geometry : Rcm.Geometry.t;
  bits : int;
  classification : Rcm.Scalability.verdict;
  agrees_with_paper : bool;
  routability_curve : (float * float) list;
  critical_q_90 : float option;
  critical_q_50 : float option;
  expected_hops_at_q0 : float;
  expected_hops_at_q20 : float;
  analysis_kind : [ `Exact_model | `Lower_bound ];
}

let default_qs = [ 0.05; 0.1; 0.2; 0.3; 0.5 ]

let build ?(bits = 16) ?(qs = default_qs) geometry =
  {
    geometry;
    bits;
    classification = Rcm.Scalability.classify geometry ~q:0.1;
    agrees_with_paper = Rcm.Scalability.agrees_with_paper geometry ~q:0.1;
    routability_curve = List.map (fun q -> (q, Rcm.Model.routability geometry ~d:bits ~q)) qs;
    critical_q_90 = Critical_q.critical_q geometry ~d:bits ~target:0.9;
    critical_q_50 = Critical_q.critical_q geometry ~d:bits ~target:0.5;
    (* Ring chains need 2^(m-1) states per phase; cap the hop-prediction
       dimension accordingly. *)
    expected_hops_at_q0 = Latency.predicted_hops geometry ~d:(min bits 16) ~q:0.0;
    expected_hops_at_q20 = Latency.predicted_hops geometry ~d:(min bits 16) ~q:0.2;
    analysis_kind = Rcm.Model.analysis_kind geometry;
  }

let pp ppf r =
  Fmt.pf ppf "## %s (%s) at N = 2^%d@." (Rcm.Geometry.system r.geometry)
    (Rcm.Geometry.description r.geometry)
    r.bits;
  Fmt.pf ppf "scalability: %a%s@." Rcm.Scalability.pp_verdict r.classification
    (if r.agrees_with_paper then " [matches the paper]" else " [DISAGREES with the paper]");
  Fmt.pf ppf "model status: %s@."
    (match r.analysis_kind with
    | `Exact_model -> "chain models the basic protocol exactly"
    | `Lower_bound -> "analysis is a routability lower bound (suboptimal-hop progress dropped)");
  Fmt.pf ppf "routability:";
  List.iter (fun (q, r) -> Fmt.pf ppf "  q=%.2f:%.4f" q r) r.routability_curve;
  Fmt.pf ppf "@.";
  let pp_critical ppf = function
    | None -> Fmt.string ppf "unattainable"
    | Some q -> Fmt.pf ppf "%.4f" q
  in
  Fmt.pf ppf "operating envelope: r >= 0.9 up to q = %a; r >= 0.5 up to q = %a@." pp_critical
    r.critical_q_90 pp_critical r.critical_q_50;
  let hops_status =
    match r.geometry with
    | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube -> "exact"
    | Rcm.Geometry.Xor | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _
    | Rcm.Geometry.Record _ ->
        "chain upper bound; real routes skip phases (see E7)"
  in
  Fmt.pf ppf "expected hops (delivered): %.2f at q = 0, %.2f at q = 0.2 (%s)@."
    r.expected_hops_at_q0 r.expected_hops_at_q20 hops_status
