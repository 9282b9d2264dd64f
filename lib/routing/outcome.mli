(** Result of routing one message over a (possibly failed) overlay. *)

type t =
  | Delivered of { hops : int }
  | Dropped of { hops : int; stuck_at : int }
      (** The message holder [stuck_at] had no alive neighbour making
          progress; no back-tracking is allowed (section 4.1), so the
          message is lost. *)

val metric_label : t -> string
(** ["delivered"] or ["dead_end"] — the class this outcome lands in
    within the [routing/<geometry>/<class>] metric family. Loops are
    impossible by construction (every router makes strict progress in
    its distance), so no outcome maps to ["loop"]. *)

val metric_labels : string list
(** The full outcome partition used by the metric schema:
    [["delivered"; "dead_end"; "loop"]]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
