(** The geometry registry: one descriptor per geometry family.

    Everything that needs "the list of geometries" — the CLI's
    [--geometry] documentation and [geometries] subcommand, the
    docs-drift check, the backend-equivalence / batch-differential /
    churn / storage test matrices — enumerates this registry instead
    of pattern-matching hard-coded variants, so a plugged-in family
    rides into all of them by registering one descriptor.

    The descriptor is {e declarative}: its capability flags state
    which engines the family supports; the actual behaviour hangs off
    the per-layer hook registries ({!Rcm.Geometry.register_family},
    {!Rcm.Model.register_custom}, [Overlay.Table.register_custom_builder],
    [Routing.Router.register_custom], …). The conformance tests check
    flags against hooks, so a descriptor cannot silently overstate
    what its plugin registered. See DESIGN.md, "Adding a geometry". *)

type t = {
  default : Rcm.Geometry.t;  (** the family's default parameterisation *)
  builtin : bool;  (** one of the five paper geometries *)
  example : string;
      (** an example [--geometry] argument, e.g. ["record:h=4"] —
          shown in docs and used by smoke tests *)
  degree : string;  (** routing-table size, as shown in the README table *)
  hops : string;  (** expected hop count, as shown in the README table *)
  analysis : bool;  (** RCM closed form registered ({!Rcm.Model}) *)
  chain : bool;  (** per-distance routing chain available *)
  batch_block : bool;
      (** routed by a block driver under the batch kernel (the C lanes
          or a registered [Block] lane) rather than the scalar lane *)
  sparse : bool;
      (** sparse overlay builder + sparse router + placement style
          registered — implies storage/hotspot support *)
  session_churn : bool;  (** supported by the session-churn engine *)
}

val register : t -> unit
(** Registers a descriptor. Plugins call this at module-init time,
    after registering their {!Rcm.Geometry} family.
    @raise Invalid_argument if the name is taken, or a non-builtin
    descriptor's [default] is not a [Custom] of a registered family. *)

val all : unit -> t list
(** Every registered descriptor, built-ins first, then plugins in link
    order. *)

val find : string -> t option
(** Descriptor by family name (case-insensitive). *)

val name : t -> string
(** The family name ([Rcm.Geometry.name] of [default]). *)

val names : unit -> string list
(** [List.map name (all ())]. *)
