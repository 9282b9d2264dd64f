(* Routing over k-bucket tables (replication experiments).

   [`Xor] mode is Kademlia with k-buckets: prefer the bucket correcting
   the highest-order differing bit; if every contact there is dead, fall
   back to the bucket of the next differing bit, and so on. [`Tree] mode
   is Plaxton with backup pointers: only the leading bucket may be used
   and the message is dropped when all its contacts are dead. *)

(* First live contact of [cur]'s bucket for bit [level], or -1. *)
let first_alive ~alive table cur level =
  let n = Overlay.Kbucket.length table cur level in
  let rec scan i =
    if i >= n then -1
    else
      let c = Overlay.Kbucket.contact table cur level i in
      if Overlay.Failure.get alive c then c else scan (i + 1)
  in
  scan 0

let route ?(on_hop = ignore) ~mode table ~alive ~src ~dst =
  let bits = Overlay.Kbucket.bits table in
  let rec step cur hops =
    if cur = dst then Outcome.Delivered { hops }
    else begin
      let diff = Idspace.Id.xor_distance cur dst in
      let leading = bits - Idspace.Id.floor_log2 diff in
      let next =
        match mode with
        | `Tree -> first_alive ~alive table cur leading
        | `Xor ->
            let rec try_level level =
              if level > bits then -1
              else if Idspace.Id.get_bit ~bits diff level then
                let found = first_alive ~alive table cur level in
                if found >= 0 then found else try_level (level + 1)
              else try_level (level + 1)
            in
            try_level leading
      in
      if next < 0 then Outcome.Dropped { hops; stuck_at = cur }
      else begin
        on_hop next;
        step next (hops + 1)
      end
    end
  in
  step src 0
