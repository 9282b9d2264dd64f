type t = { counts : int array; mutable total : int }

let create ~buckets =
  if buckets <= 0 then invalid_arg "Histogram.create: non-positive bucket count"
  else { counts = Array.make buckets 0; total = 0 }

let add_many t bucket n =
  if bucket < 0 then invalid_arg "Histogram.add: negative bucket"
  else if n < 0 then invalid_arg "Histogram.add_many: negative count"
  else begin
    t.total <- t.total + n;
    if bucket < Array.length t.counts then t.counts.(bucket) <- t.counts.(bucket) + n
  end

let to_fractions t =
  Array.map
    (fun c -> if t.total = 0 then 0.0 else float_of_int c /. float_of_int t.total)
    t.counts
