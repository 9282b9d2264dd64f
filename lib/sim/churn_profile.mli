(** Churn behaviour of custom geometry families.

    The churn engine ({!Session_churn}) needs four per-geometry facts
    beyond routing: which routing-table slots are {e positional} (a
    single deterministic candidate — ring fingers, Symphony near
    links — that can only heal when its target returns),
    how a {e re-drawable} slot draws a fresh candidate, whether
    periodic maintenance repairs dead entries in place, and which
    closed form maps measured staleness back to predicted
    routability. Built-in geometries hard-code these; a plugin family
    registers them here once. *)

type t = {
  near_slots : int;
      (** Slots [0 .. near_slots - 1] of every row are positional:
          repair and rejoin keep their current target. Slots at or
          above are re-drawable. The staleness split
          ([stale_near] / [stale_shortcut]) uses the same boundary. *)
  redraw : Prng.Splitmix.t -> v:int -> slot:int -> int;
      (** One raw candidate draw for re-drawable slot [slot] of node
          [v]'s row — no liveness logic here; the engine wraps it in
          its alive-preferring bounded rejection (at most 8
          retries). Must consume the same draws the table builder's
          entry function would for that slot, so a fully-repaired row
          is distributed like a fresh one. *)
  maintained : bool;
      (** When true, nodes get periodic maintenance ticks
          ({!Session_churn}) that redraw dead re-drawable entries in
          place, like Symphony shortcut repair; when false the family
          only heals on rejoin. *)
  prediction :
    bits:int -> stale:float -> stale_near:float -> stale_shortcut:float -> float;
      (** The churn-to-static bridge: predicted routability at the
          measured stale fractions (overall, and split by slot
          class). Typically evaluates the family's RCM spec at
          [q = stale]. *)
}

type resolver = (string * int) list -> bits:int -> t
(** Builds the profile from the geometry's normalized parameter list
    and the id-space width. *)

val register : family:string -> resolver -> unit
(** Registers a family's churn profile resolver. Call at module-init
    time from the plugin library.
    @raise Invalid_argument if the family is already registered. *)

val resolve_exn : string -> Rcm.Geometry.t -> bits:int -> t
(** [resolve_exn context geometry ~bits] resolves a custom geometry's
    profile, raising [Invalid_argument] (prefixed with [context]) for
    built-ins or unregistered families. *)

val redraw_alive :
  t -> Prng.Splitmix.t -> alive:Overlay.Failure.t -> v:int -> slot:int -> int
(** One alive-preferring redraw of a re-drawable slot: up to 8
    rejection draws of {!field-redraw} preferring live candidates, then
    accept the last — the engine's repair rule. *)
