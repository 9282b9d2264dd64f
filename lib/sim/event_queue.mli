(** Deterministic event queue for discrete-event simulation. Events
    pop in (time, insertion sequence) order: equal timestamps pop in
    insertion order.

    A payload is an [int]; a caller with several event kinds packs the
    kind and its subject into it (the session engine stores node·4 +
    kind). One-shot events live in a binary heap, a struct of unboxed
    arrays — timestamps, insertion sequence numbers and payloads side
    by side — so ordering work compares unboxed keys, a sift stores
    plain words without a write barrier, and a popped event leaves
    nothing reachable behind it.

    A queue created with an [interval] also has a periodic lane: an
    event added by {!add_periodic} re-arms itself [interval] later each
    time it pops, taking the next insertion sequence number at that
    pop. The lane is a ring kept sorted by (time, sequence), merged
    with the heap at every read. Rounding is monotone
    (a <= b implies fl(a + interval) <= fl(b + interval)), so when the
    periodic events all start within one interval of each other they
    re-arm in one fixed cyclic order, and a pop and its re-arm cost a
    comparison and three stores instead of a heap pop and push. The
    ring sorts itself again whenever an append would break its order,
    so the pop order is the same as a heap holding every event, for
    every input, ties included. Pop order depends only on
    (time, insertion order), never on the layout. *)

type t

val create : ?interval:float -> unit -> t
(** An empty queue; with [interval], one with a periodic lane of that
    interval.
    @raise Invalid_argument when [interval] is not finite and [> 0]. *)

val add : t -> time:float -> int -> unit
(** Adds a one-shot event.
    @raise Invalid_argument on a nan timestamp. *)

val add_periodic : t -> time:float -> int -> unit
(** [add_periodic t ~time p] adds a periodic event: it pops first at
    [time], and each pop re-arms it at the popped time plus the
    queue's interval, as if the caller had {!add}ed it again right
    after the pop.
    @raise Invalid_argument on a nan timestamp, or when the queue was
    created without an interval. *)

val min_time : t -> float
(** Time of the earliest event, the one {!pop} removes next.
    @raise Invalid_argument when the queue is empty. *)

val pop : t -> int
(** Removes the earliest event and returns its payload; read its time
    with {!min_time} first. A periodic event is re-armed before [pop]
    returns. The heap's arrays shrink once they fall to a quarter
    full.
    @raise Invalid_argument when the queue is empty. *)

val size : t -> int
(** Pending events, periodic ones included. Test hook: [is_empty] is
    all the engine needs, and [test_churn] checks the count against its
    sorted-list model. *)

val is_empty : t -> bool
