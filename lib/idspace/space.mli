(** A fully-populated binary identifier space of 2^bits node ids.

    The paper analyses DHTs whose identifier space is fully populated
    (section 4.1, assumption 1): node ids are exactly the integers
    0 .. 2^bits - 1. *)

type t

val max_bits : int
(** Largest supported [bits] for concrete (simulated) spaces. *)

val create : bits:int -> t
(** @raise Invalid_argument unless [1 <= bits <= max_bits]. *)

val bits : t -> int
val size : t -> int

val check : t -> int -> unit
(** @raise Invalid_argument if the id lies outside the space. *)
