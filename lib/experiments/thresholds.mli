(** Experiment A10 — routing collapse versus connectivity collapse.

    Definition 2 conditions on q < 1 - p_c; this table locates both the
    percolation threshold (simulated giant-component collapse) and the
    much earlier routing collapse (analytical critical q at r = 0.5) at
    a fixed network size. The margin between them is RCM's subject
    matter. *)

type row = {
  geometry : Rcm.Geometry.t;
  routing_collapse : float option;
  connectivity_collapse : float;
}

val run : ?bits:int -> ?trials:int -> ?seed:int -> unit -> row list

val pp_rows : Format.formatter -> row list -> unit
