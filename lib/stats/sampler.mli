(** Sampling helpers for Monte-Carlo routability estimation. *)

val ordered_pair : Prng.Splitmix.t -> 'a array -> 'a * 'a
(** A uniform ordered pair of two distinct elements.
    @raise Invalid_argument when the pool has fewer than 2 elements. *)
