type t = { parent : int array; rank : int array }

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size"
  else { parent = Array.init n Fun.id; rank = Array.make n 0 }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    (* Path halving keeps the structure nearly flat without recursion. *)
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb = if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb) in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    true
  end
