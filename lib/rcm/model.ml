(* ReCord's spec is Rcm.Digits.xor_spec: D = d/log2 h phases,
   n(h) = C(D,h)(h_base-1)^h, and at m unresolved digits there are m
   useful contacts, so Q(m) is the XOR expression — base-independent. *)
let spec_of_geometry = function
  | Geometry.Tree -> Tree.spec
  | Geometry.Hypercube -> Hypercube.spec
  | Geometry.Xor -> Xor_routing.spec
  | Geometry.Ring -> Ring.spec
  | Geometry.Symphony { k_n; k_s } -> Symphony.spec ~k_n ~k_s
  | Geometry.Record { h } -> Digits.xor_spec ~group:(Idspace.Id.floor_log2 h)

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
   ReCord's digit-granular spec is held to the lower-bound standard
   too. *)
let analysis_kind = function
  | Geometry.Ring | Geometry.Record _ -> `Lower_bound
  | Geometry.Tree | Geometry.Hypercube | Geometry.Xor | Geometry.Symphony _ -> `Exact_model
