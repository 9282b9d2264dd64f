(** Compensated (Neumaier-Kahan) floating-point summation.

    Used throughout the RCM engine to accumulate series whose terms span
    many orders of magnitude without losing low-order bits. *)

type t
(** A mutable running compensated sum. *)

val create : unit -> t
(** [create ()] is a fresh accumulator with total [0.0]. *)

val add : t -> float -> unit
(** [add acc x] folds [x] into the running sum. *)

val total : t -> float
(** [total acc] is the compensated value of the sum so far. *)

val sum_array : float array -> float
(** [sum_array xs] is the compensated sum of all elements of [xs]. *)

val sum_fn : lo:int -> hi:int -> (int -> float) -> float
(** [sum_fn ~lo ~hi f] is the compensated sum of [f i] for [i] from [lo]
    to [hi] inclusive. Empty when [lo > hi]. *)
