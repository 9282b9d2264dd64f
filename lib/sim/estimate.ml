type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  q : float;
  trials : int;
  pairs_per_trial : int;
  seed : int;
}

type result = {
  config : config;
  delivered : int;
  attempted : int;
  ci : Stats.Binomial_ci.t option;
  hop_summary : Stats.Summary.t;
  mean_alive_fraction : float;
  failed_trials : int;
}

let config ?(trials = 3) ?(pairs_per_trial = 2_000) ?(seed = 42) ~bits ~q geometry =
  if trials < 1 then invalid_arg "Estimate.config: need at least one trial";
  if pairs_per_trial < 1 then invalid_arg "Estimate.config: need at least one pair";
  if not (Numerics.Prob.is_valid q) then invalid_arg "Estimate.config: invalid q";
  { geometry; bits; q; trials; pairs_per_trial; seed }

let routability r =
  match r.ci with Some ci -> Stats.Binomial_ci.point ci | None -> Float.nan

let failed_percent r = 100.0 *. (1.0 -. routability r)

(* Hop counts of one trial as the compact "hops:count,..." string the
   estimate/trial trace event carries, hops ascending and empty bins
   left out — the per-geometry hop-count distributions
   [dhtlab trace report] aggregates (the Roos et al. lens on routing
   behaviour) are rebuilt from these. *)
let hops_attr hop_counts =
  Array.to_list hop_counts
  |> List.mapi (fun h c -> if c > 0 then Some (Printf.sprintf "%d:%d" h c) else None)
  |> List.filter_map Fun.id |> String.concat ","

(* One static-resilience trial (section 1): build (or fetch) the
   overlay, fail every node independently with probability q, then
   estimate the fraction of routable ordered pairs among the survivors
   by sampling. Fewer than two survivors still contribute their true
   alive fraction — only the pair sampling is skipped.

   All instrumentation below observes after the fact: it reads clocks
   and counters, never [rng], so metrics/tracing cannot shift a single
   PRNG draw (the bit-identity contract of DESIGN.md). *)
let run_trial cfg cache build_seed =
  (* The clock is read when either subsystem observes this trial;
     tracing alone must not depend on metrics being enabled. *)
  let timed = Obs.Metrics.enabled () || Obs.Trace.enabled () in
  let t0 = if timed then Unix.gettimeofday () else 0.0 in
  let table, rng = Trial.table ?cache ~bits:cfg.bits cfg.geometry build_seed in
  let alive =
    Obs.Trace.span "failure/inject"
      ~attrs:(if Obs.Trace.enabled () then [ ("q", Obs.Trace.Float cfg.q) ] else [])
      (fun () -> Overlay.Failure.sample ~rng ~q:cfg.q (Overlay.Table.node_count table))
  in
  let trial =
    Trial.run ~table ~rng ~alive ~pairs:cfg.pairs_per_trial (fun src dst ->
        Routing.Router.route table ~rng ~alive ~src ~dst)
  in
  if timed then begin
    let elapsed = Unix.gettimeofday () -. t0 in
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.observe_named "estimate/alive_fraction" trial.alive_fraction;
      Obs.Metrics.observe_named "estimate/trial_s" elapsed;
      (* Per-grid-point task latency, keyed by q: the sweep scheduler's
         unit of work is one (trial, q) task. *)
      Obs.Metrics.observe_named (Printf.sprintf "estimate/task_s[q=%g]" cfg.q) elapsed
    end;
    if Obs.Trace.enabled () then
      Obs.Trace.event "estimate/trial"
        ~attrs:
          [
            ("geometry", Obs.Trace.String (Rcm.Geometry.slug cfg.geometry));
            ("q", Obs.Trace.Float cfg.q);
            ("alive_fraction", Obs.Trace.Float trial.alive_fraction);
            ("delivered", Obs.Trace.Int trial.delivered);
            ("attempted", Obs.Trace.Int trial.attempted);
            ("dur_s", Obs.Trace.Float elapsed);
            ("hops", Obs.Trace.String (hops_attr trial.hop_counts));
          ]
        ()
  end;
  trial

(* Reduce trial contributions in index order (the determinism
   contract: the alive fractions are the only float sum, so the only
   order-sensitive step; hop histograms add up exactly in any order,
   and the hop summary is computed once, from their sum). Failed trials
   contribute nothing: the estimate covers the surviving trials only,
   so its CI widens honestly with the lost sample size, and the failure
   count is reported alongside instead of raising. When no surviving
   trial attempted a pair there is no estimate to report: [ci = None]
   rather than a fabricated 0/1 interval. *)
let collect cfg outcomes =
  let delivered = ref 0 in
  let attempted = ref 0 in
  let hop_counts = ref [||] in
  let alive_total = ref 0.0 in
  let survivors = ref 0 in
  let failed = ref 0 in
  Array.iter
    (function
      | Exec.Pool.Done (t : Trial.t) ->
          incr survivors;
          delivered := !delivered + t.delivered;
          attempted := !attempted + t.attempted;
          alive_total := !alive_total +. t.alive_fraction;
          hop_counts :=
            Array.init
              (max (Array.length !hop_counts) (Array.length t.hop_counts))
              (fun h ->
                let count a = if h < Array.length a then a.(h) else 0 in
                count !hop_counts + count t.hop_counts)
      | Exec.Pool.Failed _ -> incr failed
      | Exec.Pool.Cancelled -> assert false (* Sweep.run raised *))
    outcomes;
  {
    config = cfg;
    delivered = !delivered;
    attempted = !attempted;
    ci =
      (if !attempted = 0 then None
       else Some (Stats.Binomial_ci.wilson ~successes:!delivered ~trials:!attempted ()));
    hop_summary = Stats.Summary.of_counts !hop_counts;
    mean_alive_fraction =
      (if !survivors = 0 then Float.nan else !alive_total /. float_of_int !survivors);
    failed_trials = !failed;
  }

(* A stored trial replays exactly the trial the live run produced
   (ints are ints; the alive fraction is written with 17 significant
   digits, so it reloads bit-equal). *)
let key_of cfg ~trial =
  {
    Checkpoint.geometry = Rcm.Geometry.slug cfg.geometry;
    bits = cfg.bits;
    q = cfg.q;
    pairs = cfg.pairs_per_trial;
    seed = cfg.seed;
    trial;
  }

(* The engine's view of the typed trial records: task [k] is trial
   [k mod trials] of grid point [k / trials]. *)
let store checkpoint configs ~trials =
  let key k = key_of configs.(k / trials) ~trial:(k mod trials) in
  {
    Sweep.checkpoint;
    kind = "trial";
    find =
      (fun k ->
        match Checkpoint.find checkpoint (key k) with
        | Some (Checkpoint.Trial s) -> Some (Exec.Pool.Done s)
        | Some (Checkpoint.Failed { attempts; error }) ->
            Some (Exec.Pool.Failed { attempts; error })
        | None -> None);
    record =
      (fun k -> function
        | Exec.Pool.Done s -> Checkpoint.record checkpoint (key k) (Checkpoint.Trial s)
        | Exec.Pool.Failed { attempts; error } ->
            Checkpoint.record checkpoint (key k) (Checkpoint.Failed { attempts; error })
        | Exec.Pool.Cancelled -> ());
  }

let run_sweep ?pool ?cache ?backend:_ ?retries ?fault ?checkpoint cfg qs =
  (* The master seed is a trial-key field: beyond 2^53 it would reload
     as a neighbouring seed and the resume would replay nothing. *)
  if checkpoint <> None && not (Checkpoint.exact_int cfg.seed) then
    invalid_arg "Estimate.run_sweep: a checkpointed seed must lie within +-(2^53 - 1)";
  if qs = [] then []
  else begin
    List.iter
      (fun q -> if not (Numerics.Prob.is_valid q) then invalid_arg "Estimate.run_sweep: invalid q")
      qs;
    Obs.Trace.span "estimate/sweep"
      ~attrs:
        (if Obs.Trace.enabled () then
           [
             ("geometry", Obs.Trace.String (Rcm.Geometry.slug cfg.geometry));
             ("bits", Obs.Trace.Int cfg.bits);
             ("qs", Obs.Trace.Int (List.length qs));
             ("trials", Obs.Trace.Int cfg.trials);
           ]
         else [])
    @@ fun () ->
    let seeds = Trial.seeds ~seed:cfg.seed ~trials:cfg.trials in
    let configs = Array.of_list (List.map (fun q -> { cfg with q }) qs) in
    (* Flatten the sweep into |qs| × trials independent tasks: trial
       seeds do not depend on q, so every grid point reuses the same
       [trials] overlays (via [cache]) and the whole grid parallelises
       at once instead of 3 trials at a time. *)
    let outcomes =
      Sweep.run ?pool ?retries ?fault
        ?store:(Option.map (fun ck -> store ck configs ~trials:cfg.trials) checkpoint)
        ~label:(Rcm.Geometry.slug cfg.geometry)
        ~group:(fun k -> Printf.sprintf "q=%g" configs.(k / cfg.trials).q)
        (Array.length configs * cfg.trials)
        (fun k -> run_trial configs.(k / cfg.trials) cache seeds.(k mod cfg.trials))
    in
    List.mapi
      (fun qi c -> (c.q, collect c (Array.sub outcomes (qi * cfg.trials) cfg.trials)))
      (Array.to_list configs)
  end

let run ?pool ?cache cfg =
  match run_sweep ?pool ?cache cfg [ cfg.q ] with
  | [ (_, r) ] -> r
  | _ -> assert false

(* Failed trials are always visible in human output: silence would
   present a degraded estimate as a full-sample one. *)
let pp_failed ppf r =
  if r.failed_trials > 0 then
    Fmt.pf ppf " [%d/%d trials failed]" r.failed_trials r.config.trials

let pp_result ppf r =
  match r.ci with
  | Some ci ->
      Fmt.pf ppf "%a d=%d q=%.3f: routability %a, hops %a%a" Rcm.Geometry.pp
        r.config.geometry r.config.bits r.config.q Stats.Binomial_ci.pp ci Stats.Summary.pp
        r.hop_summary pp_failed r
  | None when r.failed_trials = r.config.trials ->
      Fmt.pf ppf "%a d=%d q=%.3f: no estimate (every trial failed)%a" Rcm.Geometry.pp
        r.config.geometry r.config.bits r.config.q pp_failed r
  | None ->
      Fmt.pf ppf "%a d=%d q=%.3f: no routable pairs (every surviving trial had < 2 survivors)%a"
        Rcm.Geometry.pp r.config.geometry r.config.bits r.config.q pp_failed r

(* --- machine-readable result rows ----------------------------------------- *)

let csv_header =
  "geometry,bits,q,trials,failed_trials,delivered,attempted,routability,ci_lower,ci_upper,hops_mean"

let to_csv_row r =
  let ci_field f = match r.ci with Some ci -> Printf.sprintf "%.6f" (f ci) | None -> "nan" in
  Printf.sprintf "%s,%d,%g,%d,%d,%d,%d,%s,%s,%s,%s"
    (Rcm.Geometry.slug r.config.geometry)
    r.config.bits r.config.q r.config.trials r.failed_trials r.delivered r.attempted
    (ci_field Stats.Binomial_ci.point)
    (ci_field Stats.Binomial_ci.lower)
    (ci_field Stats.Binomial_ci.upper)
    (let mean = Stats.Summary.mean r.hop_summary in
     if Float.is_finite mean then Printf.sprintf "%.6f" mean else "nan")

let to_json r =
  let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
  let ci_field f = match r.ci with Some ci -> json_float (f ci) | None -> "null" in
  Printf.sprintf
    "{\"geometry\": %S, \"bits\": %d, \"q\": %s, \"trials\": %d, \"failed_trials\": %d, \
     \"delivered\": %d, \"attempted\": %d, \"routability\": %s, \"ci_lower\": %s, \
     \"ci_upper\": %s, \"hops_mean\": %s}"
    (Rcm.Geometry.slug r.config.geometry)
    r.config.bits (json_float r.config.q) r.config.trials r.failed_trials r.delivered
    r.attempted
    (ci_field Stats.Binomial_ci.point)
    (ci_field Stats.Binomial_ci.lower)
    (ci_field Stats.Binomial_ci.upper)
    (json_float (Stats.Summary.mean r.hop_summary))
