(* The geometry registry: one descriptor per registered geometry
   family (the five built-ins plus plugins), enumerated — never
   pattern-matched — by the CLI, the bench, the docs checks and the
   test matrices. The descriptor is declarative: capability flags say
   which engines a family supports, and the conformance test
   (test_geom) checks the flags against the per-layer hook registries
   so a descriptor cannot overstate what its plugin registered.

   Registration order is preserved (built-ins first, then plugins in
   link order) so enumerated output is stable. *)

type t = {
  default : Rcm.Geometry.t;
  builtin : bool;
  example : string;
  degree : string;
  hops : string;
  analysis : bool;
  chain : bool;
  batch_block : bool;
  sparse : bool;
  session_churn : bool;
}

let registry : t list ref = ref []

let name d = Rcm.Geometry.name d.default

let register d =
  let n = name d in
  if List.exists (fun d' -> String.equal (name d') n) !registry then
    invalid_arg (Printf.sprintf "Geom.register: %S already registered" n);
  (if not d.builtin then
     match d.default with
     | Rcm.Geometry.Custom { family; _ } ->
         if Rcm.Geometry.find_family family = None then
           invalid_arg
             (Printf.sprintf
                "Geom.register: family %S is not registered with Rcm.Geometry" family)
     | _ -> invalid_arg "Geom.register: non-builtin descriptor must carry Custom");
  registry := !registry @ [ d ]

let all () = !registry

let names () = List.map name !registry

(* --- the five paper geometries -------------------------------------------- *)

let builtin default ~example ~degree ~hops ~batch_block ~sparse ~session_churn =
  {
    default;
    builtin = true;
    example;
    degree;
    hops;
    analysis = true;
    chain = true;
    batch_block;
    sparse;
    session_churn;
  }

let () =
  register
    (builtin Rcm.Geometry.Tree ~example:"tree" ~degree:"d" ~hops:"O(log N)"
       ~batch_block:true ~sparse:true ~session_churn:true);
  register
    (builtin Rcm.Geometry.Hypercube ~example:"hypercube" ~degree:"d" ~hops:"O(log N)"
       ~batch_block:false ~sparse:false ~session_churn:true);
  register
    (builtin Rcm.Geometry.Xor ~example:"xor" ~degree:"d" ~hops:"O(log N)"
       ~batch_block:true ~sparse:true ~session_churn:true);
  register
    (builtin Rcm.Geometry.Ring ~example:"ring" ~degree:"d" ~hops:"O(log N)"
       ~batch_block:true ~sparse:true ~session_churn:true);
  register
    (builtin Rcm.Geometry.default_symphony ~example:"symphony" ~degree:"k_n + k_s"
       ~hops:"O(log^2 N)" ~batch_block:true ~sparse:true ~session_churn:true)
