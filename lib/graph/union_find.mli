(** Disjoint-set forest with union by rank and path halving. *)

type t

val create : int -> t
(** [create n] has elements 0..n-1, each its own component. *)

val find : t -> int -> int
val union : t -> int -> int -> bool
(** [union t a b] merges the components of [a] and [b]; returns [false]
    when they were already joined. *)
