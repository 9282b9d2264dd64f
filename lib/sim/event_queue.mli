(** Deterministic binary-heap event queue for discrete-event
    simulation. Events with equal timestamps pop in insertion order.

    A payload is an [int]; a caller with several event kinds packs the
    kind and its subject into it (the session engine stores node·4 +
    kind). The heap is a struct of unboxed arrays — timestamps,
    insertion sequence numbers and payloads side by side — so ordering
    work compares unboxed keys, a sift stores plain words without a
    write barrier, and a popped event leaves nothing reachable behind.
    Pop order depends only on (time, insertion order), never on the
    layout. *)

type t

val create : unit -> t
(** An empty queue. *)

val add : t -> time:float -> int -> unit
(** @raise Invalid_argument on a nan timestamp. *)

val min_time : t -> float
(** Time of the earliest event, the one {!pop} removes next.
    @raise Invalid_argument when the queue is empty. *)

val pop : t -> int
(** Removes the earliest event and returns its payload; read its time
    with {!min_time} first. The backing arrays shrink once they fall to
    a quarter full.
    @raise Invalid_argument when the queue is empty. *)

val size : t -> int
val is_empty : t -> bool
