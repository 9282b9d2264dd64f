type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

(* Welford's online algorithm: numerically stable single-pass mean and
   variance. *)
let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let of_counts counts =
  let n = ref 0 and sum = ref 0 in
  Array.iteri
    (fun h c ->
      if c < 0 then invalid_arg "Summary.of_counts: negative count";
      n := !n + c;
      sum := !sum + (h * c))
    counts;
  let t = create () in
  if !n > 0 then begin
    let mean = float_of_int !sum /. float_of_int !n in
    t.count <- !n;
    t.mean <- mean;
    Array.iteri
      (fun h c ->
        if c > 0 then begin
          let x = float_of_int h in
          t.m2 <- t.m2 +. (float_of_int c *. (x -. mean) *. (x -. mean));
          if x < t.min then t.min <- x;
          t.max <- x
        end)
      counts
  end;
  t

let count t = t.count

let mean t = if t.count = 0 then nan else t.mean

let variance t = if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let min t = if t.count = 0 then nan else t.min

let max t = if t.count = 0 then nan else t.max

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.6g sd=%.3g min=%.6g max=%.6g" t.count (mean t) (stddev t)
    (min t) (max t)
