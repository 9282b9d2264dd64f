let check_args ~fn n k =
  if n < 0 then invalid_arg (fn ^ ": negative n")
  else if k < 0 then invalid_arg (fn ^ ": negative k")

let log_choose n k =
  check_args ~fn:"Binomial.log_choose" n k;
  if k > n then neg_infinity
  else if k = 0 || k = n then 0.0
  else
    Special.log_factorial n
    -. Special.log_factorial k
    -. Special.log_factorial (n - k)

(* Multiplicative evaluation: prod_{i=1..k} (n - k + i) / i. Exact in
   float for every value that fits (C(100,50) ~ 1e29 is fine); each
   factor is computed as a fused multiply-then-divide to bound drift. *)
let choose_float n k =
  check_args ~fn:"Binomial.choose_float" n k;
  if k > n then 0.0
  else
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc

let choose_exn n k =
  check_args ~fn:"Binomial.choose_exn" n k;
  if k > n then 0
  else
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      let next = !acc * (n - k + i) in
      if next / (n - k + i) <> !acc then failwith "Binomial.choose_exn: overflow";
      acc := next / i
    done;
    !acc
