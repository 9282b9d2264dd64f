type config = { q : float; ds : int list }

(* Routability versus system size at fixed failure probability: the
   paper's scalability picture, q = 0.1 out to N ~ 10^12. *)
let default_config = { q = 0.1; ds = Grid.fig7b_d }

let geometries = Rcm.Geometry.all_default

let run cfg =
  Series.tabulate
    ~title:(Printf.sprintf "Fig 7(b): routability vs system size (d = log2 N) at q=%.2f" cfg.q)
    ~x_label:"d" ~x:(List.map float_of_int cfg.ds)
    (List.map
       (fun g ->
         ( Rcm.Geometry.slug g,
           fun d -> Rcm.Model.routability g ~d:(int_of_float d) ~q:cfg.q ))
       geometries)
