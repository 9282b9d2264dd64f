(* Lanczos approximation with g = 7 and 9 coefficients; relative error is
   below 1e-13 over the positive real axis, which is more than enough for
   log-binomial coefficients at d = 100. *)
let lanczos_g = 7.0

let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let pi = 4.0 *. atan 1.0

let log_sqrt_two_pi = 0.5 *. log (2.0 *. pi)

let rec log_gamma x =
  if Float.is_nan x then nan
  else if x <= 0.0 && Float.is_integer x then infinity
  else if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (pi /. Float.abs (sin (pi *. x))) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    log_sqrt_two_pi +. (((x +. 0.5) *. log t) -. t) +. log !acc

let log_factorial_cache_size = 257

let log_factorial_cache =
  lazy
    (let cache = Array.make log_factorial_cache_size 0.0 in
     for n = 2 to log_factorial_cache_size - 1 do
       cache.(n) <- cache.(n - 1) +. log (float_of_int n)
     done;
     cache)

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument"
  else if n < log_factorial_cache_size then (Lazy.force log_factorial_cache).(n)
  else log_gamma (float_of_int n +. 1.0)

(* log(1 - exp x) for x <= 0, following Maechler's note: use expm1 near 0
   and log1p elsewhere to avoid cancellation at both ends. *)
let log1mexp x =
  if x > 0.0 then invalid_arg "Special.log1mexp: positive argument"
  else if x = 0.0 then neg_infinity
  else if x > -.Float.log 2.0 then log (-.Float.expm1 x)
  else Float.log1p (-.Float.exp x)
