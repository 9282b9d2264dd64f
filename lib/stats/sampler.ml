let ordered_indexes rng n =
  if n < 2 then invalid_arg "Sampler.ordered_indexes: fewer than 2 elements"
  else begin
    let i = Prng.Splitmix.int rng n in
    let rec draw_j () =
      let j = Prng.Splitmix.int rng n in
      if j = i then draw_j () else j
    in
    (i, draw_j ())
  end

let ordered_pair rng pool =
  if Array.length pool < 2 then invalid_arg "Sampler.ordered_pair: pool smaller than 2"
  else
    let i, j = ordered_indexes rng (Array.length pool) in
    (pool.(i), pool.(j))
