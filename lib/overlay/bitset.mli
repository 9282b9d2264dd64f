(** Packed membership bitset over node ids — the physical
    representation behind {!Failure} alive-masks.

    One bit per id, packed 32 to an [int] Bigarray element. The
    membership test is one load + shift + mask with no allocation
    (deliberately {e not} an [int64] Bigarray, whose element reads box
    on the non-flambda compiler), the payload is 32× smaller than a
    [bool array] heap block would scan, and — like {!Flat} — it lives
    outside the OCaml heap, so every domain of an {!Exec.Pool} reads a
    shared mask without copies or GC traffic. *)

type t

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The packed payload: bit [v land 31] of word [v lsr 5] is id [v]'s
    membership. Bits at index [length] and above of the last word are
    always zero. *)

val create : int -> t
(** [create len] is the empty set over ids [0 .. len-1].
    @raise Invalid_argument on a negative length. *)

val unfilled : int -> t
(** [unfilled len] is a set over ids [0 .. len-1] whose words hold
    whatever the allocator left there: for a caller that then writes
    every word whole, the bits past [len] in the last one as zeros
    ({!Failure.sample}), and so need not pay for zeroing them first.
    @raise Invalid_argument on a negative length. *)

val all : int -> t
(** [all len] contains every id in [0 .. len-1]. *)

val length : t -> int
(** Number of ids the set ranges over (not the member count). *)

val get : t -> int -> bool
(** Membership test. @raise Invalid_argument outside [0, length). *)

val unsafe_get : t -> int -> bool
(** {!get} without the bounds check; callers index below [length]. *)

val set : t -> int -> bool -> unit
(** [set t v b] adds ([b = true]) or removes [v].
    @raise Invalid_argument outside [0, length). *)

val members : t -> int array
(** Member ids, ascending. *)

val to_bool_array : t -> bool array
(** Bit [i] of the set as entry [i]. *)

val words : t -> words
(** The underlying payload, for read-only word-at-a-time access by the
    batch routing kernel. Mutating it directly breaks the tail-word
    invariant; use {!set}. *)
