(** Rank index over an alive mask: the [i]-th survivor in ascending id
    order, found without a survivor list.

    A static trial draws its pairs as survivor {e indexes} (the draws
    of [Stats.Sampler.ordered_pair]); {!select} maps an index to the
    node id that [(Bitset.members mask).(i)] would hold. Where a
    survivor list is a fresh [int array] of up to N ids per trial, the
    index is a per-word inclusive popcount and a directory holding the
    word of every [2^k]-th survivor, in one [uint32] Bigarray of N/16
    entries: the mask's own N/4 bytes, off-heap and shared read-only
    by every domain. At [2^20] nodes it takes 256 KiB and builds in
    about 0.15 ms; the survivor list it replaces took up to 8 MiB and
    2–6 ms.

    The routing kernels select in C through the same code
    ([rank.h]); a select costs about as much as a read from a
    survivor list: a few L2 hits, then a branch-free search over the
    word's bit counts. *)

type t

val create : Bitset.t -> t
(** [create mask] indexes the members of [mask] among its first
    [Bitset.length mask] bits. Bits written through {!Bitset.words}
    above the low 32 of a word or past the length are not members.
    The index is of the mask as it is now: it does not follow later
    {!Bitset.set} calls.
    @raise Invalid_argument if the mask is longer than [2^32 - 1]
    bits. *)

val empty : t
(** The index of the empty mask. *)

val count : t -> int
(** Number of members. *)

val mask : t -> Bitset.t
(** The mask [create] indexed. *)

val select : t -> int -> int
(** [select t i] is the [i]-th member, ascending, from 0.
    @raise Invalid_argument outside [0, count t). *)

val select_variants : (string * (t -> int -> int)) list
(** {!select} once per in-word select this host runs, each called
    directly: ["x86-64-v4"] (x86-64 GCC builds on CPUs with that
    level), a PDEP, which the pair draws of [Routing.Route_batch] use
    there, then ["default"], the search every CPU runs. Every one
    returns {!select}'s id. Test hook: [select] runs only the search,
    so only this list lets [test_batch] check the PDEP select against
    it. *)

val memory_bytes : t -> int
(** Bytes the index adds to its mask. Test hook: lets [test_batch] pin
    the index at most N/4 bytes, which no other API reports. *)
