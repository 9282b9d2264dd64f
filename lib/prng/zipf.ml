type t = { cdf : float array }

let create ~s ~n =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if not (Float.is_finite s) || s < 0. then
    invalid_arg "Zipf.create: s must be finite and non-negative";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) s);
    cdf.(k) <- !total
  done;
  let z = !total in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. z
  done;
  (* Guard against rounding: the last bucket must cover u -> 1. *)
  cdf.(n - 1) <- 1.;
  { cdf }

let cdf t = t.cdf

let pmf t k =
  let n = Array.length t.cdf in
  if k < 0 || k >= n then invalid_arg "Zipf.pmf: rank out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)

let draw t rng =
  let u = Splitmix.float rng in
  (* Smallest index with cdf.(i) > u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
