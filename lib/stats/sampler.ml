let ordered_pair rng pool =
  let n = Array.length pool in
  if n < 2 then invalid_arg "Sampler.ordered_pair: pool smaller than 2"
  else begin
    let i = Prng.Splitmix.int rng n in
    let rec draw_j () =
      let j = Prng.Splitmix.int rng n in
      if j = i then draw_j () else j
    in
    (pool.(i), pool.(draw_j ()))
  end
