(** ReCord routing (Zeng & Hsu, cs/0410074): greedy in the
    digit-indicator distance over base-[h] digits, preferring the
    contact that corrects the most significant differing digit and
    falling back to lower differing digits when contacts are dead — the
    {!Xor_router} rule, to which it specialises at [h = 2]. Every hop
    strictly decreases the distance, so routing terminates without
    back-tracking (see {!Router} for the shared invariants). *)

val route :
  ?on_hop:(int -> unit) ->
  h:int ->
  Overlay.Table.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** Routes over a table of {!Overlay.Table.record_entry} rows through
    the table accessors, so rules, blocks and churn's rows alike. *)

val block :
  h:int ->
  Overlay.Flat.targets ->
  Overlay.Bitset.words ->
  Overlay.Flat.offsets ->
  int array ->
  int array ->
  int ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  int ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  unit
(** The batch kernel's ReCord lane, in its C lanes' calling convention
    ([Route_batch]): [block ~h targets words offsets srcs dsts n
    hops_out stuck_out bits degree trav term] routes pairs
    [(srcs.(k), dsts.(k))], [k < n], over a CSR block, taking {!route}'s
    hops; it writes [stuck_out.(k) = -1] on delivery or the stuck node,
    and bumps the [trav]/[term] loadmap slices at the scalar counting
    points unless they are zero-length. [degree] goes unread. *)

val sparse_route :
  on_hop:(int -> unit) ->
  h:int ->
  Overlay.Sparse.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
(** {!route} over a sparse overlay's node indexes, skipping
    [Overlay.Sparse.missing] slots. *)
