(* The state lives in an 8-byte buffer, read and written with the
   unboxed native-endian primitives: without flambda a [mutable int64]
   field would box every step, so every bounded draw would allocate.
   Over the buffer a draw returning an [int] allocates nothing, and C
   stubs (route_batch_stubs.c) update the same state in place. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_int64 seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let create ~seed = of_int64 (Int64.of_int seed)

let state t = get64 t 0

let copy = Bytes.copy

(* SplitMix64 finaliser (Steele, Lea & Flood 2014): one additive step and
   two xor-shift-multiply mixing rounds. Inlined into every draw below so
   the int64 intermediates stay unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  mix z

let next_int64 t = step t

(* Every step adds the same gamma to the state, whatever it outputs,
   so [k] steps are one multiply-add (mod 2^64). *)
let advance t k =
  if k < 0 then invalid_arg "Splitmix.advance: negative count";
  set64 t 0 (Int64.add (get64 t 0) (Int64.mul (Int64.of_int k) golden_gamma))

(* 53 uniformly random mantissa bits scaled into [0, 1). *)
let float t = Int64.to_float (Int64.shift_right_logical (step t) 11) *. 0x1.0p-53

let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

(* Draw [k] is the mix of the state after [k + 1] steps. *)
let bits62_at state k =
  let z = Int64.add state (Int64.mul (Int64.of_int (k + 1)) golden_gamma) in
  Int64.to_int (Int64.shift_right_logical (mix z) 2)

(* Unbiased bounded integers by rejection on the top chunk: a draw
   above max62 - ((max62 mod bound) + 1) mod bound is drawn again. That
   limit is never below max62 - bound + 1, so a draw at or below
   max62 - bound is accepted without computing it, as splitmix.h does:
   the two divisions are paid only for draws within [bound] of the
   top. *)
let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: non-positive bound";
  let max62 = (1 lsl 62) - 1 in
  let v = bits62 t in
  if v <= max62 - bound then v mod bound
  else begin
    let limit = max62 - (((max62 mod bound) + 1) mod bound) in
    let v = ref v in
    while !v > limit do
      v := bits62 t
    done;
    !v mod bound
  end

let bernoulli t ~p =
  if not (Numerics.Prob.is_valid p) then invalid_arg "Splitmix.bernoulli: invalid p"
  else float t < p

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
