(** Deterministic binary-heap event queue for discrete-event
    simulation. Events with equal timestamps pop in insertion order.

    The heap is a struct of arrays — timestamps, insertion sequence
    numbers and payloads side by side — so ordering work compares
    unboxed keys and never follows a pointer to an event record. Pop
    order depends only on (time, insertion order), never on the
    layout. *)

type 'a t

val create : filler:'a -> 'a t
(** An empty queue. [filler] is what unused payload slots hold: pick a
    constant of the payload type (a constant constructor such as an
    engine's [Measure] event is ideal). It is never returned by {!pop}.
    Do not pass a payload you will also {!add}: whatever value fills
    the free slots stays reachable for the queue's lifetime. *)

val add : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument on a nan timestamp. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. The vacated payload slot is
    reset to the filler so the popped payload does not stay reachable
    through the queue, and the backing arrays shrink once they fall to
    a quarter full. *)

val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool
