open Numerics

let log_2 = log 2.0

let check_params ~k_n ~k_s =
  if k_n < 0 || k_s < 1 then
    invalid_arg "Symphony: need k_s >= 1 shortcuts and k_n >= 0 near neighbours"

let log_population ~d ~h =
  Spec.check_d d;
  if h < 1 || h > d then invalid_arg "Symphony.log_population: h outside 1..d"
  else float_of_int (h - 1) *. log_2

let suboptimal_cap ~d ~q =
  Spec.check_d d;
  Spec.check_q q;
  if q >= 1.0 then invalid_arg "Symphony.suboptimal_cap: q must be < 1"
  else int_of_float (Float.ceil (float_of_int d /. (1.0 -. q)))

(* Eq. 7: with f = q^(k_n + k_s) (all connections dead), a = k_s/d (a
   shortcut lands in the desired phase) and s = 1 - a - f (suboptimal
   hop), Q = f * sum_{j=0..J} s^j with J = ceil(d/(1-q)). Constant in
   the phase index m — which is exactly why sum Q(m) diverges and
   Symphony is unscalable (section 5.5). *)
let phase_failure ~d ~q ~k_n ~k_s =
  Spec.check_d d;
  Spec.check_q q;
  check_params ~k_n ~k_s;
  if q = 0.0 then 0.0
  else if q = 1.0 then 1.0
  else begin
    let f = Prob.pow q (k_n + k_s) in
    let a = float_of_int k_s /. float_of_int d in
    let s = 1.0 -. a -. f in
    if s <= 0.0 then Prob.clamp f
    else begin
      let j_cap = suboptimal_cap ~d ~q in
      Prob.clamp (f *. Prob.geometric_sum s (float_of_int (j_cap + 1)))
    end
  end

(* Heterogeneous variant: near links and shortcuts die with different
   probabilities. Under churn the two classes age differently — near
   links are positional and heal only when the neighbour returns, while
   shortcuts are re-drawn at repairs — so a single q mispredicts; this
   form takes the two stale fractions separately. Reduces exactly to
   Eq. 7 when q_near = q_shortcut. *)
let phase_failure_heterogeneous ~d ~q_near ~q_shortcut ~k_n ~k_s =
  Spec.check_d d;
  Spec.check_q q_near;
  Spec.check_q q_shortcut;
  check_params ~k_n ~k_s;
  let f = Prob.pow q_near k_n *. Prob.pow q_shortcut k_s in
  if f = 0.0 then 0.0
  else begin
    let a = float_of_int k_s /. float_of_int d in
    let s = 1.0 -. a -. f in
    if s <= 0.0 then Prob.clamp f
    else begin
      let blended =
        ((float_of_int k_n *. q_near) +. (float_of_int k_s *. q_shortcut))
        /. float_of_int (k_n + k_s)
      in
      if blended >= 1.0 then Prob.clamp f
      else begin
        let j_cap = suboptimal_cap ~d ~q:blended in
        Prob.clamp (f *. Prob.geometric_sum s (float_of_int (j_cap + 1)))
      end
    end
  end

let spec_heterogeneous ~q_near ~k_n ~k_s =
  check_params ~k_n ~k_s;
  Spec.check_q q_near;
  {
    Spec.geometry = Geometry.Symphony { k_n; k_s };
    max_phase = (fun ~d -> d);
    log_population = (fun ~d ~h -> log_population ~d ~h);
    phase_failure =
      (fun ~d ~q ~m:_ -> phase_failure_heterogeneous ~d ~q_near ~q_shortcut:q ~k_n ~k_s);
  }

let success_probability ~d ~q ~k_n ~k_s ~h =
  if h < 0 then invalid_arg "Symphony.success_probability: negative h"
  else begin
    let failure = phase_failure ~d ~q ~k_n ~k_s in
    if failure >= 1.0 then if h = 0 then 1.0 else 0.0
    else Prob.pow (1.0 -. failure) h
  end

let spec ~k_n ~k_s =
  check_params ~k_n ~k_s;
  {
    Spec.geometry = Geometry.Symphony { k_n; k_s };
    max_phase = (fun ~d -> d);
    log_population = (fun ~d ~h -> log_population ~d ~h);
    phase_failure = (fun ~d ~q ~m:_ -> phase_failure ~d ~q ~k_n ~k_s);
  }
