type config = {
  bits : int;
  qs : float list;
  ks : int list;
  trials : int;
  pairs : int;
  seed : int;
}

let default_config =
  { bits = 12; qs = Grid.fig6_q; ks = [ 1; 2; 4; 8 ]; trials = 3; pairs = 1_500; seed = 505 }

(* A5: the replication knob, quantified. For each bucket size k (or
   successor-list length) the analytical prediction of
   {!Rcm.Replication} is paired with a simulation of the corresponding
   protocol. *)

let simulate_kbucket cfg ~mode ~k q =
  Sim.Trial.routability
    (Sim.Trial.repeat ~seed:cfg.seed ~trials:cfg.trials (fun rng ->
         let table = Overlay.Kbucket.build ~rng ~bits:cfg.bits ~k () in
         let alive = Overlay.Failure.sample ~rng ~q (Overlay.Kbucket.node_count table) in
         Sim.Trial.run ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
             Routing.Bucket_router.route ~mode table ~alive ~src ~dst)))

let simulate_ring_successors cfg ~successors q =
  Table_sim.routability
    ~build:(fun _rng -> Overlay.Table.build_ring_with_successors ~bits:cfg.bits ~successors ())
    ~q ~trials:cfg.trials ~pairs:cfg.pairs ~seed:cfg.seed

let xor_series cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf "A5 (xor): Kademlia k-bucket routability, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun k ->
         [
           ( Printf.sprintf "k=%d(ana)" k,
             fun q -> Rcm.Replication.routability_xor ~d:cfg.bits ~q ~k );
           (Printf.sprintf "k=%d(sim)" k, simulate_kbucket cfg ~mode:`Xor ~k);
         ])
       cfg.ks)

let tree_series cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf
         "A5 (tree): Plaxton backup-pointer routability, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun k ->
         [
           ( Printf.sprintf "k=%d(ana)" k,
             fun q -> Rcm.Replication.routability_tree ~d:cfg.bits ~q ~k );
           (Printf.sprintf "k=%d(sim)" k, simulate_kbucket cfg ~mode:`Tree ~k);
         ])
       cfg.ks)

let ring_series cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf
         "A5 (ring): Chord successor-list routability, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.concat_map
       (fun successors ->
         [
           ( Printf.sprintf "r=%d(ana)" successors,
             fun q -> Rcm.Replication.routability_ring ~d:cfg.bits ~q ~successors );
           (Printf.sprintf "r=%d(sim)" successors, simulate_ring_successors cfg ~successors);
         ])
       (* Successor lists shadow the short fingers (distances 1, 2, 4,
          ... duplicate them), so meaningful lengths start around 4;
          map the bucket sweep to r = 0, 4, 8, 16, ... *)
       (List.map (fun k -> if k = 1 then 0 else 2 * k) cfg.ks))
