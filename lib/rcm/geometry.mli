(** Routing geometries: the five the paper analyses (section 3) plus
    ReCord.

    ReCord (Zeng & Hsu, cs/0410074) generalises randomized Chord to
    h-ary recursive rings; in RCM terms it is digit-granular Kademlia
    over base-[h] digits, and at [h = 2] it is the xor geometry draw for
    draw. Geometries are pure data, so they remain polymorphically
    comparable (the table cache keys on them) and serialisable into
    checkpoint streams. *)

type t =
  | Tree  (** Plaxton prefix routing *)
  | Hypercube  (** CAN, d-dimensional binary hypercube *)
  | Xor  (** Kademlia *)
  | Ring  (** Chord with randomized fingers *)
  | Symphony of { k_n : int; k_s : int }
      (** small-world ring with [k_n] near neighbours and [k_s]
          shortcuts per node *)
  | Record of { h : int }
      (** ReCord over base-[h] digits of [log2 h] bits: one randomized
          contact per (digit level, alternative digit value), degree
          [(h - 1) d / log2 h]. [h] is a power of two in [2..1024]
          ({!check_params}). *)

val default_symphony : t
(** Symphony with k_n = k_s = 1, the configuration plotted in Fig. 7. *)

val all_default : t list
(** The five paper geometries with default parameters, in the paper's
    order — the default sweep set. *)

val all : t list
(** One geometry per constructor: {!all_default}, then ReCord at
    [h = 2] — the test matrices and [dhtlab geometries]. *)

val name : t -> string
(** Short lowercase geometry name ("tree", "hypercube", ..., "record"). *)

val slug : t -> string
(** Parameter-qualified identifier: equals {!name} for the paper's
    geometries and ["record:h=N"] for ReCord — the form used in
    checkpoint keys, CSV/JSON labels and metric names, and accepted
    back by {!of_string}. *)

val check_params : bits:int -> t -> (unit, string) result
(** [check_params ~bits g] is the rule [g]'s own parameters set on the
    identifier length, whatever [bits] is: ReCord's [h] must be a
    power of two in [2..1024] whose digit width [log2 h] divides
    [bits]. [Ok ()] for the other geometries. {!check_size} applies
    it; the analytical commands, which run at any [bits], apply it
    alone. *)

val check_size : ?nodes:int -> bits:int -> t -> (unit, string) result
(** [check_size ~bits g] is [Ok ()] when an overlay of [g] can be
    built over the [2^bits] identifier space, fully populated or, given
    [nodes], with [nodes] occupied identifiers (a sparse build): [bits]
    in [1..Idspace.Space.max_bits], [nodes] in [2..2^bits], a Symphony
    with [k_s >= 1] and [k_n >= 0] (the rule of its analytic model and
    Markov chain) and degree [k_n + k_s] below the node count,
    no sparse hypercube, and {!check_params}. [Overlay.Table.build] and
    [Overlay.Sparse.build] raise [Invalid_argument] with this message,
    so a command that checks its grid first rejects a config before
    any point runs. *)

val check_size_exn : string -> ?nodes:int -> bits:int -> t -> unit
(** [check_size_exn context] is {!check_size} raising
    [Invalid_argument (context ^ ": " ^ message)] on an error. *)

val system : t -> string
(** The representative system name (Plaxton, CAN, Kademlia, Chord,
    Symphony, ReCord). *)

val description : t -> string

val of_string : string -> (t, string) result
(** Parses geometry names and system names case-insensitively, and
    ReCord's ["record:h=N"] (alias ["rechord"]; bare ["record"] is
    [h = 2]). [N] is a decimal integer, given at most once. Accepts
    everything {!slug} produces, and never raises. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
