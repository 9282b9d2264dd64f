(** Replica placement over a sparse overlay.

    A key is a point in the 2^bits identifier space; its replicas live
    on [r] {e distinct} nodes chosen by the geometry's proximity
    structure, mirroring the real protocols:

    - ring / symphony: the successor list — the first [r] nodes
      clockwise from the key (Chord; Zave, "How to Make Chord Correct",
      identifies this list as the correctness-critical structure).
    - tree / xor / record: the neighbourhood set — the [r] nodes whose
      identifiers are XOR-closest to the key (Kademlia/Plaxton; ReCord
      follows the same digit/XOR proximity, and at [h = 2] is xor).

    Placement is a pure function of the overlay and the key, so every
    participant computes the same holder set without coordination, and
    read-repair can extend the set deterministically: [candidates]
    enumerates nodes in placement order, and rank [r], [r+1], … are
    exactly the nodes a repair promotes when earlier holders die. *)

val candidates : Overlay.Sparse.t -> key:int -> count:int -> int array
(** The first [count] replica candidates for [key], best first:
    clockwise successors of [key] on ring/symphony, XOR-closest nodes
    on tree/xor/record.
    Entries are distinct node indexes.
    @raise Invalid_argument if [count] is outside [0, node_count], the
    key is outside the identifier space, or the geometry is
    [Hypercube]. *)

val replica_set : Overlay.Sparse.t -> key:int -> r:int -> int array
(** [replica_set o ~key ~r] = [candidates o ~key ~count:r] — the
    initial holder set. *)
