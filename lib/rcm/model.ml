(* Custom-geometry analysis hooks: a plugin family registers its RCM
   spec constructor, analysis kind and (optionally) its per-distance
   routing chain, keyed by family name. Registration happens at
   module-init time (before any lookup), so the table needs no
   locking. Families without a closed form simply never register and
   the analytical entry points raise for them. *)

type custom_analysis = {
  spec : (string * int) list -> Spec.t;
  kind : [ `Exact_model | `Lower_bound ];
  chain : ((string * int) list -> d:int -> q:float -> h:int -> Markov.Routing_chains.routing) option;
  classification : [ `Scalable | `Unscalable ] * string;
}

let custom_analyses : (string, custom_analysis) Hashtbl.t = Hashtbl.create 8

let register_custom ~family analysis =
  if Hashtbl.mem custom_analyses family then
    invalid_arg (Printf.sprintf "Model.register_custom: %S already registered" family);
  Hashtbl.replace custom_analyses family analysis

let spec_of_geometry = function
  | Geometry.Tree -> Tree.spec
  | Geometry.Hypercube -> Hypercube.spec
  | Geometry.Xor -> Xor_routing.spec
  | Geometry.Ring -> Ring.spec
  | Geometry.Symphony { k_n; k_s } -> Symphony.spec ~k_n ~k_s
  | Geometry.Custom { family; params } -> (
      match Hashtbl.find_opt custom_analyses family with
      | Some a -> a.spec params
      | None ->
          invalid_arg
            (Printf.sprintf "Model.spec_of_geometry: family %S has no registered RCM analysis"
               family))

let routability geometry ~d ~q = Engine.routability (spec_of_geometry geometry) ~d ~q

let failed_paths_percent geometry ~d ~q =
  Engine.failed_paths_percent (spec_of_geometry geometry) ~d ~q

let success_probability geometry ~d ~q ~h =
  Engine.success_probability (spec_of_geometry geometry) ~d ~q ~h

let expected_reachable geometry ~d ~q =
  Engine.expected_reachable (spec_of_geometry geometry) ~d ~q

(* The paper's comparison targets (section 4): for tree, hypercube, XOR
   and Symphony the chain model is exact for the basic geometry, while
   for ring it is a lower bound (suboptimal-hop progress is dropped).
   Custom families declare their own kind at registration. *)
let analysis_kind = function
  | Geometry.Ring -> `Lower_bound
  | Geometry.Tree | Geometry.Hypercube | Geometry.Xor | Geometry.Symphony _ -> `Exact_model
  | Geometry.Custom { family; _ } -> (
      match Hashtbl.find_opt custom_analyses family with
      | Some a -> a.kind
      | None ->
          invalid_arg
            (Printf.sprintf "Model.analysis_kind: family %S has no registered RCM analysis"
               family))

let custom_classification = function
  | Geometry.Custom { family; _ } -> (
      match Hashtbl.find_opt custom_analyses family with
      | Some a -> Some a.classification
      | None -> None)
  | Geometry.Tree | Geometry.Hypercube | Geometry.Xor | Geometry.Ring | Geometry.Symphony _
    ->
      None

let custom_chain geometry ~d ~q ~h =
  match geometry with
  | Geometry.Custom { family; params } -> (
      match Hashtbl.find_opt custom_analyses family with
      | Some { chain = Some chain; _ } -> Some (chain params ~d ~q ~h)
      | Some { chain = None; _ } | None -> None)
  | Geometry.Tree | Geometry.Hypercube | Geometry.Xor | Geometry.Ring | Geometry.Symphony _
    ->
      None
