(** Sampling helpers for Monte-Carlo routability estimation. *)

val ordered_indexes : Prng.Splitmix.t -> int -> int * int
(** [ordered_indexes rng n] is a uniform ordered pair [(i, j)] of
    distinct indexes below [n]: [i = Splitmix.int rng n], then
    [Splitmix.int rng n] again until it differs from [i]. Every static
    trial draws its pairs in this order, from a survivor list or
    through a rank index.
    @raise Invalid_argument when [n < 2]. *)

val ordered_pair : Prng.Splitmix.t -> 'a array -> 'a * 'a
(** A uniform ordered pair of two distinct elements: the elements at
    {!ordered_indexes}.
    @raise Invalid_argument when the pool has fewer than 2 elements. *)
