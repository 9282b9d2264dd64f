(** Experiment A5 — the replication knob (sequential neighbours),
    quantified across the geometries that support it.

    The paper's introduction notes that a system designer "can always
    add enough sequential neighbors to achieve an acceptable
    routability". This experiment sweeps Kademlia bucket size k,
    Plaxton backup-pointer count k, and Chord successor-list length r,
    pairing the extended analysis of {!Rcm.Replication} with a
    simulation of each protocol. *)

type config = {
  bits : int;
  qs : float list;
  ks : int list;  (** bucket sizes to sweep; ring uses [k - 1] successors *)
  trials : int;
  pairs : int;
  seed : int;
}

val default_config : config

val xor_series : config -> Series.t
(** Kademlia with k-buckets: k=...(ana) and k=...(sim) columns. *)

val tree_series : config -> Series.t
(** Plaxton with backup pointers. *)

val ring_series : config -> Series.t
(** Chord with successor lists (r = 0 for k = 1, else r = 2k). *)

