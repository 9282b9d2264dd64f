type verdict =
  | Convergent of { partial_sum : float; tail_bound : float; terms_used : int }
  | Divergent of { reason : string; partial_sum : float; terms_used : int }
  | Inconclusive of { partial_sum : float; terms_used : int }

(* Empirical convergence analysis of a non-negative series sum f(m) for
   m >= 1. The series we classify (the per-phase failure probabilities
   Q(m) of section 5) are eventually monotone, so a sustained ratio
   bound r < 1 certifies convergence with geometric tail bound
   t * r / (1 - r), while terms that stop decreasing certify divergence
   by the term test. *)
let classify ?(max_terms = 400) ?(ratio_window = 16) ?(tolerance = 1e-14) f =
  if max_terms < ratio_window + 2 then invalid_arg "Series.classify: max_terms too small";
  let acc = Kahan.create () in
  let rec scan m last ratio_max streak =
    if m > max_terms then `Exhausted (last, ratio_max, streak)
    else begin
      let t = f m in
      if t < 0.0 || Float.is_nan t then
        invalid_arg "Series.classify: terms must be non-negative"
      else begin
        Kahan.add acc t;
        if t <= tolerance *. Float.max 1.0 (Kahan.total acc) then `Negligible (m, t)
        else begin
          let ratio = if last > 0.0 then t /. last else infinity in
          if ratio < 1.0 then
            let streak = streak + 1 in
            let ratio_max = if streak = 1 then ratio else Float.max ratio_max ratio in
            if streak >= ratio_window then `Shrinking (m, t, ratio_max)
            else scan (m + 1) t ratio_max streak
          else scan (m + 1) t 0.0 0
        end
      end
    end
  in
  match scan 1 infinity 0.0 0 with
  | `Negligible (m, _) ->
      Convergent { partial_sum = Kahan.total acc; tail_bound = tolerance; terms_used = m }
  | `Shrinking (m, t, r) ->
      (* Keep summing with the certified ratio until the geometric tail
         bound is negligible or the budget runs out. *)
      let rec extend m t =
        let tail = t *. r /. (1.0 -. r) in
        if tail <= tolerance *. Float.max 1.0 (Kahan.total acc) || m >= max_terms then
          (m, tail)
        else begin
          let t' = f (m + 1) in
          Kahan.add acc t';
          if t' > t then (m + 1, t' /. (1.0 -. r))
          else extend (m + 1) t'
        end
      in
      let terms_used, tail_bound = extend m t in
      Convergent { partial_sum = Kahan.total acc; tail_bound; terms_used }
  | `Exhausted (last, _, _) ->
      if last > 1e-6 then
        Divergent
          {
            reason = Printf.sprintf "terms do not vanish (term ~ %.3g)" last;
            partial_sum = Kahan.total acc;
            terms_used = max_terms;
          }
      else Inconclusive { partial_sum = Kahan.total acc; terms_used = max_terms }

let partial_sum ~terms f = Kahan.sum_fn ~lo:1 ~hi:terms f

(* prod_{m=1..} (1 - f m), evaluated as exp(sum log1p(-f m)); stops when
   the remaining tail cannot move the product by more than [tolerance]
   relatively, or when the product has collapsed to zero. *)
let infinite_product_one_minus ?(max_terms = 100_000) ?(tolerance = 1e-12) f =
  let log_acc = Kahan.create () in
  let rec loop m =
    if m > max_terms then `Truncated
    else
      let t = f m in
      if t < 0.0 || t > 1.0 then
        invalid_arg "Series.infinite_product_one_minus: term outside [0,1]"
      else if t = 1.0 then `Zero
      else begin
        Kahan.add log_acc (Float.log1p (-.t));
        if Kahan.total log_acc < -746.0 then `Zero
        else if t < tolerance && m > 8 then `Converged
        else loop (m + 1)
      end
  in
  match loop 1 with
  | `Zero -> 0.0
  | `Converged | `Truncated -> exp (Kahan.total log_acc)
