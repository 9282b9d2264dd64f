type config = { bits : int; qs : float list; knobs : (int * int) list }

(* A2: the designer's knob the paper discusses in sections 1 and 3.5 —
   adding near neighbours and shortcuts buys routability at any fixed
   size, even though the geometry stays asymptotically unscalable. *)
let default_config =
  {
    bits = 16;
    qs = Grid.fig6_q;
    knobs = [ (1, 1); (2, 1); (1, 2); (2, 2); (4, 2); (4, 4) ];
  }

let label (k_n, k_s) = Printf.sprintf "kn=%d,ks=%d" k_n k_s

let run cfg =
  Series.tabulate
    ~title:(Printf.sprintf "A2: Symphony routability vs q at N=2^%d for varying (k_n, k_s)" cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.map
       (fun (k_n, k_s) ->
         ( label (k_n, k_s),
           fun q ->
             Rcm.Model.routability (Rcm.Geometry.Symphony { k_n; k_s }) ~d:cfg.bits ~q ))
       cfg.knobs)
