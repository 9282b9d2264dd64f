(* Monte-Carlo routability for ablation overlays built by custom
   constructors (Sim.Estimate only knows the standard geometries). *)
let routability ~build ~q ~trials ~pairs ~seed =
  Sim.Trial.routability
    (Sim.Trial.repeat ~seed ~trials (fun rng ->
         let table : Overlay.Table.t = build rng in
         let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
         Sim.Trial.run ~table ~rng ~alive ~pairs (fun src dst ->
             Routing.Router.route table ~rng ~alive ~src ~dst)))
