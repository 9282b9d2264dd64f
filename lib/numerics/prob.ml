type t = float

let is_valid p = Float.is_finite p && p >= 0.0 && p <= 1.0

let check ~fn p =
  if not (is_valid p) then invalid_arg (Printf.sprintf "%s: %g is not a probability" fn p)

let clamp p =
  if Float.is_nan p then invalid_arg "Prob.clamp: nan"
  else Float.max 0.0 (Float.min 1.0 p)

(* q^m via exp(m log q): one rounding instead of m of them, and exact at
   the q = 0 / q = 1 endpoints. *)
let pow q m =
  check ~fn:"Prob.pow" q;
  if m < 0 then invalid_arg "Prob.pow: negative exponent"
  else if m = 0 then 1.0
  else if q = 0.0 then 0.0
  else if q = 1.0 then 1.0
  else exp (float_of_int m *. log q)

(* sum_{k=0..n-1} x^k, stable when x is close to 1 (where the closed form
   (1-x^n)/(1-x) cancels catastrophically). [n] is a float so that callers
   with astronomically many terms (ring routing allows 2^(m-1) suboptimal
   hops) need not materialise the count as an int. *)
let geometric_sum x n =
  if n < 0.0 then invalid_arg "Prob.geometric_sum: negative length"
  else if n = 0.0 then 0.0
  else if Float.abs (1.0 -. x) < 1e-9 then
    (* x ~ 1: sum ~ n with a first-order correction. *)
    let eps = 1.0 -. x in
    n -. (eps *. n *. (n -. 1.0) /. 2.0)
  else (1.0 -. (x ** n)) /. (1.0 -. x)

let at_least_one_of ~q ~count =
  check ~fn:"Prob.at_least_one_of" q;
  if count < 0 then invalid_arg "Prob.at_least_one_of: negative count"
  else if count = 0 then 0.0
  else if q = 0.0 then 1.0
  else if q = 1.0 then 0.0
  else clamp (-.Float.expm1 (float_of_int count *. log q))
