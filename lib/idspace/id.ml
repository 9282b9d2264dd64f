let xor_distance a b = a lxor b

let hamming_distance a b =
  let rec count x acc = if x = 0 then acc else count (x land (x - 1)) (acc + 1) in
  count (a lxor b) 0

let ring_distance ~bits a b = (b - a) land ((1 lsl bits) - 1)

(* Binary search for the highest set bit of a 63-bit int in six
   shift-and-test steps: after the step of width w, the result lies in
   [log, log + w). *)
let floor_log2 x =
  if x <= 0 then invalid_arg "Id.floor_log2: non-positive argument";
  let log = if x lsr 32 <> 0 then 32 else 0 in
  let log = if x lsr (log + 16) <> 0 then log + 16 else log in
  let log = if x lsr (log + 8) <> 0 then log + 8 else log in
  let log = if x lsr (log + 4) <> 0 then log + 4 else log in
  let log = if x lsr (log + 2) <> 0 then log + 2 else log in
  if x lsr (log + 1) <> 0 then log + 1 else log

(* Bits are numbered 1..bits from the most significant end, matching the
   paper's "correct bits from left to right" convention. *)
let bit_mask ~bits i =
  if i < 1 || i > bits then invalid_arg "Id: bit index outside 1..bits"
  else 1 lsl (bits - i)

let get_bit ~bits id i = id land bit_mask ~bits i <> 0

let flip_bit ~bits id i = id lxor bit_mask ~bits i

let highest_differing_bit ~bits a b =
  if a = b then None else Some (bits - floor_log2 (a lxor b))

let common_prefix_length ~bits a b =
  match highest_differing_bit ~bits a b with
  | None -> bits
  | Some i -> i - 1

(* Keep the first [i] bits of [id], replace the remaining bits by the low
   bits of [suffix]. Used to build Plaxton/Kademlia neighbour tables
   ("match the first i-1 bits, flip the ith, randomise the rest"). *)
let with_suffix ~bits id ~prefix_len ~suffix =
  if prefix_len < 0 || prefix_len > bits then
    invalid_arg "Id.with_suffix: prefix length outside 0..bits";
  let suffix_bits = bits - prefix_len in
  if suffix_bits = 0 then id
  else begin
    let suffix_mask = (1 lsl suffix_bits) - 1 in
    id land lnot suffix_mask lor (suffix land suffix_mask)
  end

let to_binary_string ~bits id =
  String.init bits (fun i -> if get_bit ~bits id (i + 1) then '1' else '0')

let pp ~bits ppf id = Format.pp_print_string ppf (to_binary_string ~bits id)
