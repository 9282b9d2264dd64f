(** RCM over base-b identifier digits — the generalisation the paper
    mentions in section 3 ("any other base besides 2 can be used").

    A d-bit space read as D = d/group digits of width [group]
    (base b = 2^group) keeps the population (sum_h n(h) = 2^d - 1) and
    the per-phase failure structure, but shortens routes to at most D
    phases at the cost of (b-1)·D routing-table entries per node —
    Pastry's base parameter, analysable with the same engine. At
    [group = 1] every function reduces to the binary modules. *)

val xor_spec : group:int -> Spec.t
(** Base-b Kademlia: Q(m) as in Eq. 6 (one useful contact per differing
    digit, base-independent). *)

val tree_routability : d:int -> q:float -> group:int -> float
val xor_routability : d:int -> q:float -> group:int -> float

