(** Exact constructions of the paper's routing Markov chains.

    Each builder materialises the chain for routing to a target h hops
    (or phases) away under node-failure probability q, exactly as drawn
    in Figs. 4(a), 4(b), 5(b), 8(a) and 8(b). Solving these chains gives
    the ground truth that the closed-form p(h,q) expressions of
    section 4.3 are tested against. *)

type routing = { chain : Chain.t; success : int; failure : int }

val success_probability : routing -> float
(** Absorption probability in the success state: p(h, q). *)

val expected_hops_given_success : routing -> float
(** Expected hop count of successfully delivered messages — the latency
    the RCM chains predict for surviving paths. *)

val hop_distribution_given_success : routing -> float array
(** Full pmf of the delivered hop count (entry t = P(t hops | success));
    empty when delivery is impossible. *)

val tree : h:int -> q:float -> routing
(** Fig. 4(a): Plaxton tree, target h ordered bit-corrections away. *)

val hypercube : h:int -> q:float -> routing
(** Fig. 4(b): CAN hypercube, target at Hamming distance h. *)

val xor : h:int -> q:float -> routing
(** Fig. 5(b): Kademlia XOR routing, target h phases away. *)

val ring : h:int -> q:float -> routing
(** Fig. 8(a): Chord ring (lower-bound model), target h phases away.
    Phase m has 2^(m-1) suboptimal states.
    @raise Invalid_argument when [h > 22]. *)

val symphony : d:int -> phases:int -> q:float -> k_n:int -> k_s:int -> routing
(** Fig. 8(b): Symphony with [k_n] near neighbours and [k_s] shortcuts
    in a 2^d space, target [phases] phases away.
    @raise Invalid_argument outside the model domain
    (k_s/d + q^(k_n+k_s) > 1). *)
