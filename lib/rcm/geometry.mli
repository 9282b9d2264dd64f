(** Routing geometries: the five the paper analyses (section 3) plus
    registered plugin families.

    The closed constructors are the paper's geometries. {!Custom}
    carries a registered {e family} name plus its integer parameters —
    pure data, so geometries remain polymorphically comparable (the
    table cache keys on them) and serialisable into checkpoint
    streams. A plugin library registers its family here (naming and
    parsing) and installs behaviour through the per-layer hook
    registries ([Overlay.Table.register_custom_builder],
    [Routing.Router.register_custom], ...); a descriptor in the
    [Geom] registry bundles all of that into one record. *)

type t =
  | Tree  (** Plaxton prefix routing *)
  | Hypercube  (** CAN, d-dimensional binary hypercube *)
  | Xor  (** Kademlia *)
  | Ring  (** Chord with randomized fingers *)
  | Symphony of { k_n : int; k_s : int }
      (** small-world ring with [k_n] near neighbours and [k_s]
          shortcuts per node *)
  | Custom of { family : string; params : (string * int) list }
      (** a registered plugin family; [params] is the full parameter
          set (defaults applied), sorted by key. Construct via
          {!custom} or {!of_string}, which normalise and validate. *)

val default_symphony : t
(** Symphony with k_n = k_s = 1, the configuration plotted in Fig. 7. *)

val all_default : t list
(** The five paper geometries with default parameters, in the paper's
    order — the default sweep set. Plugin families are enumerated via
    the [Geom] registry, not here. *)

type family = {
  family_name : string;  (** canonical lowercase name, e.g. ["record"] *)
  aliases : string list;  (** extra [of_string] spellings *)
  family_system : string;  (** representative system, e.g. ["ReCord"] *)
  summary : string;  (** one-line description for listings *)
  defaults : (string * int) list;  (** full parameter schema with defaults *)
  validate : (string * int) list -> (unit, string) result;
      (** called on the normalised full parameter list *)
  check_bits : (string * int) list -> bits:int -> (unit, string) result;
      (** the family's own size rule, called by {!check_size} on the
          normalised parameters (e.g. ReCord's digit width must divide
          [bits]) *)
}
(** Parse-time face of a plugin geometry family. *)

val register_family : family -> unit
(** Registers a family for {!of_string} and {!custom}. Call at
    module-init time from the plugin library.
    @raise Invalid_argument on a name collision (built-ins included)
    or a name that is not lowercase [a-z0-9_-]. *)

val find_family : string -> family option
(** Family (or alias) lookup, case-insensitive. *)

val custom : family:string -> (string * int) list -> (t, string) result
(** [custom ~family overrides] builds a validated {!Custom}: unknown
    parameter keys are rejected, missing ones take the family default,
    and the result is normalised (sorted by key). *)

val name : t -> string
(** Short lowercase geometry name ("tree", "hypercube", ..., or the
    family name for {!Custom}). *)

val slug : t -> string
(** Parameter-qualified identifier: equals {!name} for the built-ins
    and ["family:key=v:key=v"] for {!Custom} — the form used in
    checkpoint keys, CSV/JSON labels and metric names, and accepted
    back by {!of_string}. *)

val check_size : ?nodes:int -> bits:int -> t -> (unit, string) result
(** [check_size ~bits g] is [Ok ()] when an overlay of [g] can be
    built over the [2^bits] identifier space, fully populated or, given
    [nodes], with [nodes] occupied identifiers (a sparse build): [bits]
    in [1..Idspace.Space.max_bits], [nodes] in [2..2^bits], a Symphony
    with [k_s >= 1] and [k_n >= 0] (the rule of its analytic model and
    Markov chain) and degree [k_n + k_s] below the node count,
    no sparse hypercube, and
    a custom family's [check_bits] rule. [Overlay.Table.build] and
    [Overlay.Sparse.build] raise [Invalid_argument] with this message,
    so a command that checks its grid first rejects a config before
    any point runs. *)

val check_size_exn : string -> ?nodes:int -> bits:int -> t -> unit
(** [check_size_exn context] is {!check_size} raising
    [Invalid_argument (context ^ ": " ^ message)] on an error. *)

val system : t -> string
(** The representative system name (Plaxton, CAN, Kademlia, Chord,
    Symphony, or the plugin family's system). *)

val description : t -> string

val of_string : string -> (t, string) result
(** Parses geometry names, system names and registered family names
    (with optional ["family:key=v:..."] parameters),
    case-insensitively. Accepts everything {!slug} produces. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
