type t = { bits : int; size : int }

let max_bits = 30

let create ~bits =
  if bits < 1 || bits > max_bits then
    invalid_arg
      (Printf.sprintf "Space.create: bits must be in 1..%d (got %d)" max_bits bits)
  else { bits; size = 1 lsl bits }

let bits t = t.bits

let size t = t.size

let check t id =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Space: id %d outside 2^%d space" id t.bits)
