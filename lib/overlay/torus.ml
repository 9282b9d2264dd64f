type t = { dim : int; side : int; size : int }

let dim t = t.dim

let side t = t.side

let node_count t = t.size

(* Mixed-radix coordinates: coordinate i of v is (v / side^i) mod side. *)
let coordinate t v i =
  let rec divide v i = if i = 0 then v mod t.side else divide (v / t.side) (i - 1) in
  if i < 0 || i >= t.dim then invalid_arg "Torus.coordinate: dimension out of range"
  else divide v i

let ring_distance ~side a b =
  let diff = (b - a + side) mod side in
  min diff (side - diff)

let distance t a b =
  let total = ref 0 in
  for i = 0 to t.dim - 1 do
    total := !total + ring_distance ~side:t.side (coordinate t a i) (coordinate t b i)
  done;
  !total

let with_coordinate t v i value =
  let rec stride i acc = if i = 0 then acc else stride (i - 1) (acc * t.side) in
  let s = stride i 1 in
  let current = coordinate t v i in
  v + ((value - current) * s)

(* CAN as a dim-dimensional torus of side s (N = s^dim); the paper's
   hypercube is side = 2. Neighbours step one unit along each
   dimension ([with_coordinate]); at side = 2 the two directions
   coincide. *)
let build ~dim ~side =
  if dim < 1 then invalid_arg "Torus.build: dim < 1";
  if side < 2 then invalid_arg "Torus.build: side < 2";
  let size =
    let rec power acc i = if i = 0 then acc else power (acc * side) (i - 1) in
    power 1 dim
  in
  if size > 1 lsl 24 then invalid_arg "Torus.build: more than 2^24 nodes";
  { dim; side; size }
