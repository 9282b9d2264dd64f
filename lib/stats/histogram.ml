type t = { counts : int array; mutable total : int; mutable overflow : int }

let create ~buckets =
  if buckets <= 0 then invalid_arg "Histogram.create: non-positive bucket count"
  else { counts = Array.make buckets 0; total = 0; overflow = 0 }

let add_many t bucket n =
  if bucket < 0 then invalid_arg "Histogram.add: negative bucket"
  else if n < 0 then invalid_arg "Histogram.add_many: negative count"
  else begin
    t.total <- t.total + n;
    if bucket < Array.length t.counts then
      t.counts.(bucket) <- t.counts.(bucket) + n
    else t.overflow <- t.overflow + n
  end

let add t bucket = add_many t bucket 1

let count t bucket =
  if bucket < 0 || bucket >= Array.length t.counts then 0 else t.counts.(bucket)

let total t = t.total

let overflow t = t.overflow

let buckets t = Array.length t.counts

let fraction t bucket =
  if t.total = 0 then 0.0 else float_of_int (count t bucket) /. float_of_int t.total

let mean t =
  if t.total - t.overflow = 0 then nan
  else begin
    let weighted = ref 0 in
    Array.iteri (fun i c -> weighted := !weighted + (i * c)) t.counts;
    float_of_int !weighted /. float_of_int (t.total - t.overflow)
  end

let to_fractions t = Array.init (buckets t) (fraction t)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun i c -> if c > 0 then Fmt.pf ppf "%3d: %d (%.2f%%)@," i c (100.0 *. fraction t i))
    t.counts;
  if t.overflow > 0 then Fmt.pf ppf ">=%d: %d@," (buckets t) t.overflow;
  Fmt.pf ppf "@]"
