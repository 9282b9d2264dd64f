(* ReCord (Zeng & Hsu, cs/0410074): greedy digit correction with
   XOR-style fallback. Prefer the contact correcting the most
   significant differing digit; when it is dead, fall back to the next
   differing digit down. Fixing the digit at level L zeroes an
   indicator term of weight h^(D-L) while the randomized suffix only
   contributes terms strictly below it, so every hop strictly decreases
   the digit-indicator distance — the XOR router's progress argument,
   to which this specialises at h = 2. Slot (level, rank) holds the
   contact whose level digit is the node's own plus rank (mod h), as
   Overlay.Table.record_entry lays it out. *)

(* One walk from [src] to [dst]: [id v] is node v's identifier,
   [contact v slot] its table entry and [usable c] whether [c] may take
   the message. The digits of identifiers are compared, so the same
   walk routes node ids (tables, blocks) and sparse indexes. *)
let walk ~h ~bits ~id ~contact ~usable ~on_hop src dst =
  let group = Idspace.Id.floor_log2 h in
  let digits = bits / group in
  let id_dst = id dst in
  let rec step cur hops =
    if cur = dst then Outcome.Delivered { hops }
    else begin
      let id_cur = id cur in
      let rec try_level level =
        if level > digits then -1
        else begin
          let own = Idspace.Digit.get ~bits ~group id_cur level in
          let want = Idspace.Digit.get ~bits ~group id_dst level in
          if own = want then try_level (level + 1)
          else begin
            let candidate = contact cur (((level - 1) * (h - 1)) + ((want - own + h) mod h) - 1) in
            if usable candidate then candidate else try_level (level + 1)
          end
        end
      in
      let next = try_level 1 in
      if next < 0 then Outcome.Dropped { hops; stuck_at = cur }
      else begin
        on_hop next;
        step next (hops + 1)
      end
    end
  in
  step src 0

let route ?(on_hop = ignore) ~h table ~alive ~src ~dst =
  walk ~h ~bits:(Overlay.Table.bits table) ~id:Fun.id ~contact:(Overlay.Table.neighbor table)
    ~usable:(Overlay.Failure.get alive) ~on_hop src dst

(* The walk against a block's CSR arrays directly (int32 target loads,
   packed-bitset liveness), bumping the loadmap slices at the scalar
   counting points: the batch kernel's ReCord lane. *)
let block ~h targets words offsets srcs dsts n hops_buf stuck_buf bits _degree trav term =
  let bump buf v =
    if Bigarray.Array1.dim buf > 0 then
      Bigarray.Array1.unsafe_set buf v (Bigarray.Array1.unsafe_get buf v + 1)
  in
  let contact cur slot =
    Int32.to_int
      (Bigarray.Array1.unsafe_get targets (Bigarray.Array1.unsafe_get offsets cur + slot))
  in
  let usable v = Bigarray.Array1.unsafe_get words (v lsr 5) lsr (v land 31) land 1 <> 0 in
  for k = 0 to n - 1 do
    let dst = Array.unsafe_get dsts k in
    let hops, stuck =
      match
        walk ~h ~bits ~id:Fun.id ~contact ~usable ~on_hop:(bump trav) (Array.unsafe_get srcs k)
          dst
      with
      | Outcome.Delivered { hops } -> (hops, -1)
      | Outcome.Dropped { hops; stuck_at } -> (hops, stuck_at)
    in
    bump term (if stuck < 0 then dst else stuck);
    Bigarray.Array1.unsafe_set hops_buf k hops;
    Bigarray.Array1.unsafe_set stuck_buf k stuck
  done

let sparse_route ~on_hop ~h overlay ~alive ~src ~dst =
  let targets = Overlay.Sparse.targets overlay in
  let degree = Overlay.Sparse.degree overlay in
  walk ~h ~bits:(Overlay.Sparse.bits overlay) ~id:(Overlay.Sparse.id_of overlay)
    ~contact:(fun cur slot -> Int32.to_int targets.{(cur * degree) + slot})
    ~usable:(fun c -> c <> Overlay.Sparse.missing && Overlay.Failure.get alive c)
    ~on_hop src dst
