type t = {
  mutable total : float;
  mutable compensation : float;
}

let create () = { total = 0.0; compensation = 0.0 }

(* Neumaier's variant of Kahan summation: unlike classic Kahan, it stays
   accurate when the incoming term is larger in magnitude than the running
   total, which happens routinely when summing n(h)*p(h,q) terms whose
   magnitudes span many orders. *)
let add acc x =
  let sum = acc.total +. x in
  let correction =
    if Float.abs acc.total >= Float.abs x
    then (acc.total -. sum) +. x
    else (x -. sum) +. acc.total
  in
  acc.total <- sum;
  acc.compensation <- acc.compensation +. correction

let total acc = acc.total +. acc.compensation

let sum_array xs =
  let acc = create () in
  Array.iter (fun x -> add acc x) xs;
  total acc

let sum_fn ~lo ~hi f =
  let acc = create () in
  for i = lo to hi do
    add acc (f i)
  done;
  total acc
