(** Base-2^group digit routing tables (Pastry-style): one contact per
    (level, digit value) pair — (b-1)·D entries per node.

    [Preserve_suffix] realises the base-b Plaxton tree (the contact
    differs in exactly one digit); [Randomize_suffix] realises base-b
    Kademlia buckets. At [group = 1] these coincide with the binary
    {!Table} constructions. *)

type style = Preserve_suffix | Randomize_suffix

type t

val build : ?rng:Prng.Splitmix.t -> bits:int -> group:int -> style -> t
(** @raise Invalid_argument unless [group] divides [bits]. *)

val bits : t -> int
val group : t -> int
val node_count : t -> int

val levels : t -> int
(** Number of digit levels D. *)

val neighbor : t -> int -> level:int -> digit:int -> int
(** The contact of node [v] for correcting [level] to [digit].
    @raise Invalid_argument for the node's own digit or out-of-base
    values. *)
