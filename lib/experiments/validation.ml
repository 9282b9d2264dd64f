(* V1: the closed-form p(h,q) expressions of section 4.3 against exact
   absorption probabilities of the corresponding Markov chains. *)

type chain_row = {
  label : string;
  h : int;
  q : float;
  closed_form : float;
  chain : float;
  abs_error : float;
}

let chain_row ~label ~h ~q ~closed_form ~chain =
  { label; h; q; closed_form; chain; abs_error = Float.abs (closed_form -. chain) }

let default_qs = [ 0.05; 0.1; 0.2; 0.3; 0.5; 0.7 ]

let default_hs = [ 1; 2; 3; 5; 8; 12 ]

let chain_vs_closed ?(hs = default_hs) ?(qs = default_qs) ?(symphony_d = 16) () =
  let rows = ref [] in
  let add row = rows := row :: !rows in
  List.iter
    (fun q ->
      List.iter
        (fun h ->
          add
            (chain_row ~label:"tree" ~h ~q
               ~closed_form:(Rcm.Tree.success_probability ~q ~h)
               ~chain:Markov.Routing_chains.(success_probability (tree ~h ~q)));
          add
            (chain_row ~label:"hypercube" ~h ~q
               ~closed_form:(Rcm.Hypercube.success_probability ~q ~h)
               ~chain:Markov.Routing_chains.(success_probability (hypercube ~h ~q)));
          add
            (chain_row ~label:"xor" ~h ~q
               ~closed_form:(Rcm.Xor_routing.success_probability ~q ~h)
               ~chain:Markov.Routing_chains.(success_probability (xor ~h ~q)));
          add
            (chain_row ~label:"ring" ~h ~q
               ~closed_form:(Rcm.Ring.success_probability ~q ~h)
               ~chain:Markov.Routing_chains.(success_probability (ring ~h ~q)));
          if h <= symphony_d then
            add
              (chain_row ~label:"symphony" ~h ~q
                 ~closed_form:
                   (Rcm.Symphony.success_probability ~d:symphony_d ~q ~k_n:1 ~k_s:1 ~h)
                 ~chain:
                   Markov.Routing_chains.(
                     success_probability (symphony ~d:symphony_d ~phases:h ~q ~k_n:1 ~k_s:1))))
        hs)
    qs;
  List.rev !rows

let max_chain_error rows =
  List.fold_left (fun acc r -> Float.max acc r.abs_error) 0.0 rows

(* V2: analysis against our Monte-Carlo simulation. Tree and hypercube
   chains model the simulated protocol exactly; ring is a lower bound;
   XOR and Symphony models idealise the protocol (suffix randomisation
   and shortcut overshoot respectively), so only the gap is recorded. *)

type sim_status =
  [ `Matches | `Bound_holds | `Gap of float | `Violation of float | `No_data ]

type sim_row = {
  geometry : Rcm.Geometry.t;
  q : float;
  analysis : float;
  simulated : Stats.Binomial_ci.t option;
  status : sim_status;
}

(* A run that attempted no pairs (ci = None) carries no information
   either way: report it as `No_data, never as a match or violation. *)
let classify_sim_row geometry ~analysis ~ci =
  match ci with
  | None -> `No_data
  | Some ci -> (
      let tolerance = 0.02 in
      let low = Stats.Binomial_ci.lower ci -. tolerance in
      let high = Stats.Binomial_ci.upper ci +. tolerance in
      match geometry with
      | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube ->
          if analysis >= low && analysis <= high then `Matches
          else `Violation (Float.abs (analysis -. Stats.Binomial_ci.point ci))
      | Rcm.Geometry.Ring ->
          if Stats.Binomial_ci.point ci >= analysis -. tolerance then `Bound_holds
          else `Violation (analysis -. Stats.Binomial_ci.point ci)
      | Rcm.Geometry.Xor | Rcm.Geometry.Symphony _ ->
          `Gap (Stats.Binomial_ci.point ci -. analysis)
      | Rcm.Geometry.Custom _ as g -> (
          (* A custom family declared [`Exact_model] is held to the
             tree/hypercube standard; a [`Lower_bound] one must sit at
             or above its analysis, like ring. *)
          match Rcm.Model.analysis_kind g with
          | `Exact_model ->
              if analysis >= low && analysis <= high then `Matches
              else `Violation (Float.abs (analysis -. Stats.Binomial_ci.point ci))
          | `Lower_bound ->
              if Stats.Binomial_ci.point ci >= analysis -. tolerance then `Bound_holds
              else `Violation (analysis -. Stats.Binomial_ci.point ci)))

let sim_vs_analysis ?(bits = 12) ?(qs = [ 0.05; 0.1; 0.2; 0.3 ]) ?(trials = 3)
    ?(pairs_per_trial = 2_000) ?(seed = 2006) () =
  List.concat_map
    (fun geometry ->
      List.map
        (fun q ->
          let analysis = Rcm.Model.routability geometry ~d:bits ~q in
          let result =
            Sim.Estimate.run
              (Sim.Estimate.config ~trials ~pairs_per_trial ~seed ~bits ~q geometry)
          in
          let ci = result.Sim.Estimate.ci in
          { geometry; q; analysis; simulated = ci; status = classify_sim_row geometry ~analysis ~ci })
        qs)
    Rcm.Geometry.all_default

let sim_violations rows =
  List.filter (fun r -> match r.status with `Violation _ -> true | _ -> false) rows

let pp_chain_rows ppf rows =
  Fmt.pf ppf "# V1: closed-form p(h,q) vs exact Markov-chain absorption@.";
  Fmt.pf ppf "%-10s %4s %6s %14s %14s %10s@." "geometry" "h" "q" "closed" "chain" "error";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %4d %6.2f %14.10f %14.10f %10.2e@." r.label r.h r.q r.closed_form
        r.chain r.abs_error)
    rows;
  Fmt.pf ppf "max |error| = %.3e@." (max_chain_error rows)

let pp_sim_rows ppf rows =
  Fmt.pf ppf "# V2: analytical routability vs Monte-Carlo simulation@.";
  Fmt.pf ppf "%-10s %6s %10s %24s %s@." "geometry" "q" "analysis" "simulated (95% CI)" "status";
  List.iter
    (fun r ->
      let status =
        match r.status with
        | `Matches -> "matches"
        | `Bound_holds -> "bound holds"
        | `Gap g -> Printf.sprintf "gap %+.4f (model idealisation)" g
        | `Violation v -> Printf.sprintf "VIOLATION %.4f" v
        | `No_data -> "no data"
      in
      Fmt.pf ppf "%-10s %6.2f %10.4f %24s %s@."
        (Rcm.Geometry.slug r.geometry)
        r.q r.analysis
        (match r.simulated with
        | Some ci -> Fmt.str "%a" Stats.Binomial_ci.pp ci
        | None -> "no routable pairs")
        status)
    rows
