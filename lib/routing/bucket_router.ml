(* Routing over k-bucket tables (replication experiments).

   [`Xor] mode is Kademlia with k-buckets: prefer the bucket correcting
   the highest-order differing bit; if every contact there is dead, fall
   back to the bucket of the next differing bit, and so on. [`Tree] mode
   is Plaxton with backup pointers: only the leading bucket may be used
   and the message is dropped when all its contacts are dead. *)

(* First live contact of [cur]'s bucket for bit [level], or -1. *)
let first_alive ~alive table cur level =
  let n = Overlay.Kbucket.length table cur level in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    let c = Overlay.Kbucket.contact table cur level !i in
    if Overlay.Failure.get alive c then found := c;
    incr i
  done;
  !found

(* Loops rather than local recursive functions: without flambda each
   of those would allocate a closure per route or per hop. *)
let route ?(on_hop = ignore) ~mode table ~alive ~src ~dst =
  let bits = Overlay.Kbucket.bits table in
  let cur = ref src and hops = ref 0 and stuck = ref false in
  while (not !stuck) && !cur <> dst do
    let diff = Idspace.Id.xor_distance !cur dst in
    let leading = bits - Idspace.Id.floor_log2 diff in
    let next =
      match mode with
      | `Tree -> first_alive ~alive table !cur leading
      | `Xor ->
          let found = ref (-1) and level = ref leading in
          while !found < 0 && !level <= bits do
            if Idspace.Id.get_bit ~bits diff !level then
              found := first_alive ~alive table !cur !level;
            incr level
          done;
          !found
    in
    if next < 0 then stuck := true
    else begin
      on_hop next;
      cur := next;
      incr hops
    end
  done;
  if !stuck then Outcome.Dropped { hops = !hops; stuck_at = !cur }
  else Outcome.Delivered { hops = !hops }
