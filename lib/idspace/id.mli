(** Distance metrics and bit manipulation on d-bit identifiers.

    Bits are numbered 1..bits from the most significant end, matching the
    paper's "correct identifier bits from left to right" convention. *)

val xor_distance : int -> int -> int
(** The Kademlia metric: numeric value of the XOR of the ids. *)

val hamming_distance : int -> int -> int
(** The hypercube (CAN) metric: number of differing bits. Test hook:
    the reference the tests check hypercube hop counts against. *)

val ring_distance : bits:int -> int -> int -> int
(** [ring_distance ~bits a b] is the clockwise distance from [a] to [b]
    on the 2^bits ring (the Chord/Symphony metric; asymmetric). *)

val floor_log2 : int -> int
(** @raise Invalid_argument on non-positive arguments. *)

val get_bit : bits:int -> int -> int -> bool
(** [get_bit ~bits id i] reads bit [i] (1-based from the MSB).
    @raise Invalid_argument if [i] is outside 1..bits. *)

val flip_bit : bits:int -> int -> int -> int

val highest_differing_bit : bits:int -> int -> int -> int option
(** [highest_differing_bit ~bits a b] is the most significant (smallest
    index) bit where [a] and [b] differ, or [None] when equal. *)

val common_prefix_length : bits:int -> int -> int -> int
(** Number of leading bits two ids share. Test hook: the reference the
    tests check prefix-table rows (tree, xor, sparse, k-buckets)
    against. *)

val with_suffix : bits:int -> int -> prefix_len:int -> suffix:int -> int
(** [with_suffix ~bits id ~prefix_len ~suffix] keeps the first
    [prefix_len] bits of [id] and replaces the rest with the low bits of
    [suffix]. *)

val pp : bits:int -> Format.formatter -> int -> unit
