(** Zipf-distributed rank sampler for skewed key popularity.

    A storage workload is rarely uniform: a few hot keys dominate the
    read stream. [Zipf.create ~s ~n] prepares a sampler over ranks
    [0 .. n-1] with P(rank = k) proportional to 1/(k+1)^s. Exponent
    [s = 0.] degenerates to the uniform distribution; [s ~ 0.8 .. 1.2]
    matches measured DHT key-popularity traces.

    The sampler precomputes the normalised CDF once ([O(n)] memory) and
    draws by inverse-CDF binary search ([O(log n)] per draw), consuming
    exactly one [Splitmix.float] per draw so that replacing a uniform
    key sampler with a Zipf one keeps downstream draw alignment simple
    to reason about. *)

type t

val create : s:float -> n:int -> t
(** [create ~s ~n] is a sampler over ranks [0 .. n-1].
    @raise Invalid_argument if [n < 1], or [s] is negative or not
    finite. *)

val cdf : t -> float array
(** The cumulative distribution {!draw} searches: entry [k] is the
    probability of a rank [<= k], and the last entry is [1.]. The array
    itself, read-only by convention: the storage read loop searches it
    in C, as {!draw} does. *)

val pmf : t -> int -> float
(** [pmf t k] is P(rank = k), for [k] in [0 .. n-1]. Test hook: the
    exact distribution the tests check {!cdf} and the draws against.
    @raise Invalid_argument if [k] is out of range. *)

val draw : t -> Splitmix.t -> int
(** [draw t rng] consumes one [Splitmix.float rng] and returns a rank
    in [0 .. n-1]. Deterministic given the generator state. *)
