type style = Preserve_suffix | Randomize_suffix

type t = {
  space : Idspace.Space.t;
  group : int;
  style : style;
  neighbors : int array array;
}

let bits t = Idspace.Space.bits t.space

let group t = t.group

let node_count t = Idspace.Space.size t.space

let levels t = Idspace.Digit.count ~bits:(bits t) ~group:t.group

let base t = Idspace.Digit.base ~group:t.group

(* Row layout: the contact for (level, digit value) lives at slot
   (level-1)·(b-1) + rank, where rank skips the owner's own digit. *)
let slot t ~own_digit ~level ~digit =
  let b = base t in
  if digit < 0 || digit >= b then invalid_arg "Digit_table: digit outside base";
  if digit = own_digit then invalid_arg "Digit_table: no contact for the node's own digit";
  let rank = if digit < own_digit then digit else digit - 1 in
  ((level - 1) * (b - 1)) + rank

let neighbor t v ~level ~digit =
  let own_digit = Idspace.Digit.get ~bits:(bits t) ~group:t.group v level in
  t.neighbors.(v).(slot t ~own_digit ~level ~digit)

(* The (level, digit) contact matches the owner's digits above [level],
   carries [digit] at [level], and keeps (Plaxton) or randomises
   (Kademlia) the digits below. *)
let build ?(rng = Prng.Splitmix.create ~seed:0xd161) ~bits ~group style =
  let space = Idspace.Space.create ~bits in
  let levels = Idspace.Digit.count ~bits ~group in
  let b = Idspace.Digit.base ~group in
  let size = Idspace.Space.size space in
  let row v =
    let out = Array.make (levels * (b - 1)) 0 in
    for level = 1 to levels do
      let own = Idspace.Digit.get ~bits ~group v level in
      let index = ref ((level - 1) * (b - 1)) in
      for digit = 0 to b - 1 do
        if digit <> own then begin
          let replaced = Idspace.Digit.set ~bits ~group v level digit in
          let contact =
            match style with
            | Preserve_suffix -> replaced
            | Randomize_suffix ->
                Idspace.Id.with_suffix ~bits replaced ~prefix_len:(level * group)
                  ~suffix:(Prng.Splitmix.int rng size)
          in
          out.(!index) <- contact;
          incr index
        end
      done
    done;
    out
  in
  { space; group; style; neighbors = Array.init size row }
