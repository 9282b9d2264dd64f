type t = { point : float; lower : float; upper : float; successes : int; trials : int }

let z_95 = 1.959963984540054

(* Wilson score interval: well-behaved near proportions of 0 and 1, where
   the routability estimates of highly-robust geometries live. *)
let wilson ?(z = z_95) ~successes ~trials () =
  if trials <= 0 then invalid_arg "Binomial_ci.wilson: no trials"
  else if successes < 0 || successes > trials then
    invalid_arg "Binomial_ci.wilson: successes outside 0..trials"
  else begin
    let n = float_of_int trials in
    let p_hat = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = (p_hat +. (z2 /. (2.0 *. n))) /. denom in
    let spread =
      z /. denom *. sqrt ((p_hat *. (1.0 -. p_hat) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    {
      point = p_hat;
      lower = Float.max 0.0 (centre -. spread);
      upper = Float.min 1.0 (centre +. spread);
      successes;
      trials;
    }
  end

let point t = t.point

let lower t = t.lower

let upper t = t.upper

let contains t p = p >= t.lower && p <= t.upper

let pp ppf t =
  Fmt.pf ppf "%.4f [%.4f, %.4f] (%d/%d)" t.point t.lower t.upper t.successes t.trials
