type config = {
  bits : int;
  groups : int list;
  qs : float list;
  trials : int;
  pairs : int;
  seed : int;
}

(* A7: base-b digits at fixed N = 2^16: b = 2 (the paper's binary
   setting), b = 4 and b = 16 (Pastry's default). Higher bases shorten
   routes, which buys the tree geometry a lot of static resilience —
   at the cost of (b-1)·D routing entries. *)
let default_config =
  { bits = 16; groups = [ 1; 2; 4 ]; qs = Grid.fig6_q; trials = 3; pairs = 1_500; seed = 111 }

(* One simulated column over the q grid, flattened into |qs| × trials
   tasks (parallel under [pool]); per-q sums are reduced in trial
   order, so values are bit-identical to the sequential sweep. *)
let simulate_sweep ?pool cfg ~mode ~group qs =
  let style =
    match mode with
    | `Tree -> Overlay.Digit_table.Preserve_suffix
    | `Xor -> Overlay.Digit_table.Randomize_suffix
  in
  let label =
    Printf.sprintf "base-%s b=%d"
      (match mode with `Tree -> "tree" | `Xor -> "xor")
      (Idspace.Digit.base ~group)
  in
  Sim.Sweep.grid ?pool ~label ~name:(Printf.sprintf "q=%g") ~seed:cfg.seed ~trials:cfg.trials
    qs (fun q build_seed ->
      let rng = Prng.Splitmix.of_int64 build_seed in
      let table = Overlay.Digit_table.build ~rng ~bits:cfg.bits ~group style in
      let alive = Overlay.Failure.sample ~rng ~q (Overlay.Digit_table.node_count table) in
      Sim.Trial.run ~rng ~alive ~pairs:cfg.pairs (fun src dst ->
          Routing.Digit_router.route ~mode table ~alive ~src ~dst))
  |> List.map Sim.Trial.routability
  |> Array.of_list

let label ~group suffix = Printf.sprintf "b=%d(%s)" (Idspace.Digit.base ~group) suffix

let tree_series ?pool cfg =
  Series.create
    ~title:
      (Printf.sprintf "A7 (tree): base-b Plaxton routability, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:(Array.of_list cfg.qs)
    (List.concat_map
       (fun group ->
         [
           Series.column ~label:(label ~group "ana")
             (Array.of_list
                (List.map (fun q -> Rcm.Digits.tree_routability ~d:cfg.bits ~q ~group) cfg.qs));
           Series.column ~label:(label ~group "sim")
             (simulate_sweep ?pool cfg ~mode:`Tree ~group cfg.qs);
         ])
       cfg.groups)

let xor_series ?pool cfg =
  Series.create
    ~title:
      (Printf.sprintf "A7 (xor): base-b Kademlia routability, N=2^%d — analysis vs simulation"
         cfg.bits)
    ~x_label:"q" ~x:(Array.of_list cfg.qs)
    (List.concat_map
       (fun group ->
         [
           Series.column ~label:(label ~group "ana")
             (Array.of_list
                (List.map (fun q -> Rcm.Digits.xor_routability ~d:cfg.bits ~q ~group) cfg.qs));
           Series.column ~label:(label ~group "sim")
             (simulate_sweep ?pool cfg ~mode:`Xor ~group cfg.qs);
         ])
       cfg.groups)
