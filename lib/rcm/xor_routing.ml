open Numerics

let log_population ~d ~h =
  Spec.check_d d;
  if h < 1 || h > d then invalid_arg "Xor_routing.log_population: h outside 1..d"
  else Binomial.log_choose d h

(* Eq. 6, exact form:
   Q(m) = q^m [ 1 + sum_{k=1..m-1} prod_{j=m-k..m-1} (1 - q^j) ].
   The k-th summand is the probability of surviving k suboptimal hops
   before every remaining neighbour is found dead; a running product
   evaluates the whole sum in O(m). *)
let phase_failure ~q ~m =
  Spec.check_q q;
  if m < 1 then invalid_arg "Xor_routing.phase_failure: m < 1"
  else begin
    let qm = Prob.pow q m in
    if qm = 0.0 then 0.0
    else begin
      let sum = ref 1.0 in
      let product = ref 1.0 in
      for k = 1 to m - 1 do
        product := !product *. (1.0 -. Prob.pow q (m - k));
        sum := !sum +. !product
      done;
      Prob.clamp (qm *. !sum)
    end
  end

let success_probability ~q ~h =
  Spec.check_q q;
  if h < 0 then invalid_arg "Xor_routing.success_probability: negative h"
  else begin
    let acc = Kahan.create () in
    let rec loop m =
      if m > h then exp (Kahan.total acc)
      else begin
        let qm = phase_failure ~q ~m in
        if qm >= 1.0 then 0.0
        else begin
          Kahan.add acc (Float.log1p (-.qm));
          loop (m + 1)
        end
      end
    in
    loop 1
  end

let spec =
  {
    Spec.geometry = Geometry.Xor;
    max_phase = (fun ~d -> d);
    log_population = (fun ~d ~h -> log_population ~d ~h);
    phase_failure = (fun ~d:_ ~q ~m -> phase_failure ~q ~m);
  }
