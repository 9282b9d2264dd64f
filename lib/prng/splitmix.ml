type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let of_int64 seed = { state = seed }

let state t = t.state

let copy t = { state = t.state }

(* SplitMix64 finaliser (Steele, Lea & Flood 2014): one additive step and
   two xor-shift-multiply mixing rounds. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Every step adds the same gamma to the state, whatever it outputs,
   so [k] steps are one multiply-add (mod 2^64). *)
let advance t k =
  if k < 0 then invalid_arg "Splitmix.advance: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int k) golden_gamma)

let split t =
  let seed = next_int64 t in
  of_int64 seed

(* 53 uniformly random mantissa bits scaled into [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let bits62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(* Unbiased bounded integers by rejection on the top chunk. *)
let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: non-positive bound"
  else begin
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (((max62 mod bound) + 1) mod bound) in
    let rec draw () =
      let v = bits62 t in
      if v <= limit then v mod bound else draw ()
    in
    draw ()
  end

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Splitmix.int_in_range: empty range"
  else lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t ~p =
  if not (Numerics.Prob.is_valid p) then invalid_arg "Splitmix.bernoulli: invalid p"
  else float t < p

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Harmonic distance sampling on {1, ..., n}: P(X = x) ~ 1/x. Symphony
   draws shortcut end-points this way (Manku et al. 2003). Inverse-CDF on
   the continuous 1/x density over [1, n+1), then floor: the resulting
   pmf is log((x+1)/x)/log(n+1), proportional to ~1/x as required. *)
let harmonic_int t ~n =
  if n < 1 then invalid_arg "Splitmix.harmonic_int: n < 1"
  else begin
    let u = float t in
    let x = int_of_float (exp (u *. log (float_of_int (n + 1)))) in
    if x < 1 then 1 else if x > n then n else x
  end
