type config = { bits : int; qs : float list }

(* The paper evaluates the analytical expressions at N = 2^100 as a
   stand-in for the infinite-size limit. *)
let default_config = { bits = 100; qs = Grid.fig7a_q }

let geometries = Rcm.Geometry.all_default

let run cfg =
  Series.tabulate
    ~title:
      (Printf.sprintf "Fig 7(a): asymptotic %% failed paths vs q at N=2^%d (all geometries)"
         cfg.bits)
    ~x_label:"q" ~x:cfg.qs
    (List.map
       (fun g ->
         (Rcm.Geometry.slug g, fun q -> Rcm.Model.failed_paths_percent g ~d:cfg.bits ~q))
       geometries)
