(** Greedy bidirectional ring routing (deployed Symphony, ablation A9):
    each hop minimises the circular distance to the destination over
    all alive neighbours, approaching from either side.

    Progress measure: the circular distance (the shorter way around),
    required to strictly decrease — a hop to the {e same} distance on the other side is
    refused, preserving the no-backtracking/termination invariants of
    {!Router} while still allowing direction changes mid-route. *)

val route :
  ?on_hop:(int -> unit) ->
  Overlay.Table.t ->
  alive:Overlay.Failure.t ->
  src:int ->
  dst:int ->
  Outcome.t
