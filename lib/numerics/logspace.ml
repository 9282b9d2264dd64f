type t = float

let zero = neg_infinity

let one = 0.0

let of_log x = x

let to_float x = exp x

let is_zero x = x = neg_infinity

let div = ( -. )

(* log(e^a - e^b), requiring a >= b. *)
let sub a b =
  if is_zero b then a
  else if b > a then invalid_arg "Logspace.sub: negative result"
  else if a = b then zero
  else a +. Special.log1mexp (b -. a)

let compare = Float.compare

let sum_fn ~lo ~hi f =
  if lo > hi then zero
  else begin
    let m = ref neg_infinity in
    for i = lo to hi do
      m := Float.max !m (f i)
    done;
    if is_zero !m || !m = infinity then !m
    else begin
      let acc = Kahan.create () in
      for i = lo to hi do
        Kahan.add acc (exp (f i -. !m))
      done;
      !m +. log (Kahan.total acc)
    end
  end
