(** Deterministic SplitMix64 pseudo-random number generator.

    Every simulation in this repository takes an explicit generator so
    that experiment outputs are reproducible bit-for-bit across runs.
    [split] derives an independent stream, which lets parallel trials
    share a master seed without correlating. *)

type t
(** At run time a generator is an 8-byte [bytes] buffer holding the
    state as a native-endian unsigned 64-bit integer. Draws read and
    write it unboxed, so a draw returning an [int] or [bool] allocates
    nothing. A [[@@noalloc]] C stub may take a [t] and update the state
    in place (the hypercube lane in [route_batch_stubs.c] does). *)

val create : seed:int -> t
val of_int64 : int64 -> t

val state : t -> int64
(** The current internal state. [of_int64 (state t)] is a generator
    that continues [t]'s stream exactly — the resume handle used by
    {!Overlay.Table_cache} to skip an already-performed build without
    perturbing the draws that follow it. *)

val copy : t -> t
(** [copy t] is an independent generator with the same state. *)

val next_int64 : t -> int64
(** The raw 64-bit output stream. *)

val advance : t -> int -> unit
(** [advance t k] leaves [t] in the state [k] calls of {!next_int64}
    would leave it in, in O(1). A C kernel that replays [k] draws from
    {!state} hands the stream back this way: later draws continue
    exactly where the equivalent OCaml loop would have left off.
    @raise Invalid_argument if [k < 0]. *)

val bits62_at : int64 -> int -> int
(** [bits62_at state k] is the top 62 bits of draw [k] (counting from
    0) of the generator [of_int64 state]: the output of {!next_int64}
    after [advance] by [k], shifted right by 2, in O(1) and without
    allocating. {!int} at a power-of-two bound never rejects, so its
    value at that draw is [bits62_at state k mod bound]; this lets a
    table compute one entry of a drawn construction without replaying
    the draws before it. *)

val float : t -> float
(** [float t] is uniform on [0, 1) with 53 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound), unbiased.
    @raise Invalid_argument if [bound <= 0]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)

val harmonic_int : t -> n:int -> int
(** [harmonic_int t ~n] draws from {1..n} with P(X = x) proportional to
    ~1/x — the Symphony shortcut distance distribution. *)
