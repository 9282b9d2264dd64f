open Numerics

let log_2 = log 2.0

let log_success_probability (spec : Spec.t) ~d ~q ~h =
  Spec.check_d d;
  Spec.check_q q;
  if h < 0 || h > spec.max_phase ~d then
    invalid_arg "Engine.log_success_probability: h outside 0..max phase";
  let acc = Kahan.create () in
  let rec loop m =
    if m > h then Kahan.total acc
    else begin
      let failure = spec.phase_failure ~d ~q ~m in
      if not (Prob.is_valid failure) then
        invalid_arg "Engine: phase_failure produced a non-probability"
      else if failure >= 1.0 then neg_infinity
      else begin
        Kahan.add acc (Float.log1p (-.failure));
        loop (m + 1)
      end
    end
  in
  loop 1

let success_probability spec ~d ~q ~h = exp (log_success_probability spec ~d ~q ~h)

(* Step 4 of RCM: E[S] = sum_h n(h) p(h,q), assembled in the log domain
   so the binomial populations at d = 100 never overflow. *)
let log_expected_reachable (spec : Spec.t) ~d ~q =
  Spec.check_d d;
  Spec.check_q q;
  let h_max = spec.max_phase ~d in
  let log_p = Array.make (h_max + 1) 0.0 in
  let acc = Kahan.create () in
  let finished = ref false in
  for m = 1 to h_max do
    if not !finished then begin
      let failure = spec.phase_failure ~d ~q ~m in
      if not (Prob.is_valid failure) then
        invalid_arg "Engine: phase_failure produced a non-probability";
      if failure >= 1.0 then finished := true
      else Kahan.add acc (Float.log1p (-.failure))
    end;
    log_p.(m) <- (if !finished then neg_infinity else Kahan.total acc)
  done;
  Logspace.sum_fn ~lo:1 ~hi:h_max (fun h ->
      Logspace.of_log (spec.log_population ~d ~h +. log_p.(h)))

let expected_reachable spec ~d ~q =
  Logspace.to_float (log_expected_reachable spec ~d ~q)

(* log((1-q) 2^d - 1): the expected number of *other* surviving nodes a
   surviving root can hope to reach (denominator of Eq. 1). *)
let log_surviving_peers ~d ~q =
  Spec.check_d d;
  Spec.check_q q;
  if q = 1.0 then None
  else begin
    let log_alive = Logspace.of_log (log (1.0 -. q) +. (float_of_int d *. log_2)) in
    if Logspace.compare log_alive Logspace.one <= 0 then None
    else Some (Logspace.sub log_alive Logspace.one)
  end

(* Eq. 1: r = E[S] / ((1-q) 2^d - 1). Defined as 0 when, on average,
   at most one node survives (no pairs to route between). *)
let routability spec ~d ~q =
  match log_surviving_peers ~d ~q with
  | None -> 0.0
  | Some log_peers ->
      let log_reachable = log_expected_reachable spec ~d ~q in
      Prob.clamp (Logspace.to_float (Logspace.div log_reachable log_peers))

let failed_paths_percent spec ~d ~q = 100.0 *. (1.0 -. routability spec ~d ~q)
