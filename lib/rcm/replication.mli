(** RCM extended with replicated routing-table slots.

    The paper analyses *basic* geometries (one contact per slot) and
    notes that real deployments regain fault tolerance through
    "additional sequential neighbors" — Kademlia's k-buckets, Chord's
    successor lists, Plaxton backup pointers. This module plugs those
    knobs into the generic RCM engine: each slot holds up to [k]
    independent contacts (capped by the number of candidate identifiers
    the slot can draw from), and the per-phase failure probabilities
    generalise accordingly. At k = 1 every expression reduces exactly to
    the paper's. *)

val tree_phase_failure : q:float -> k:int -> m:int -> float
(** Q(m) = q^min(k, 2^(m-1)) — the single useful bucket, which has
    only 2^(m-1) candidate ids, must die entirely. Test hook: like the
    two below, the routability functions show only the product of the
    phases, and the tests check each Q(m) against the paper's at
    [k = 1] and for monotonicity in the replication. *)

val xor_phase_failure : q:float -> k:int -> m:int -> float
(** The Fig. 5(b) chain with per-bucket capacities, solved by backward
    recursion. Equals Eq. 6 at [k = 1]. Test hook: see
    {!tree_phase_failure}. *)

val ring_phase_failure : q:float -> successors:int -> m:int -> float
(** Section 4.3.3's Q with an [successors]-entry successor list: the
    failure exponent grows from m by the number of entries that do not
    duplicate a finger, r - (floor(log2 r) + 1) (the destination
    itself must still be alive at m = 1). Test hook: see
    {!tree_phase_failure}. *)

val routability_tree : d:int -> q:float -> k:int -> float
val routability_xor : d:int -> q:float -> k:int -> float
val routability_ring : d:int -> q:float -> successors:int -> float
