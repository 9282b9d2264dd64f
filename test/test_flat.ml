(* Flat (CSR/Bigarray) versus classic overlay backend: the two
   representations must be indistinguishable through every accessor,
   leave the build PRNG in the same state, and produce bit-identical
   simulation results and byte-identical CLI output at every domain
   count — the contract that lets --overlay default to flat. *)

(* Every registered geometry, built-ins and plugins alike: a new
   descriptor joins the backend-equivalence matrix just by registering. *)
let all_geometries = List.map (fun d -> d.Geom.default) (Geom.all ())

let check_tables_equal ~what classic flat =
  let n = Overlay.Table.node_count classic in
  Alcotest.(check int) (what ^ ": node_count") n (Overlay.Table.node_count flat);
  Alcotest.(check int)
    (what ^ ": edge_count")
    (Overlay.Table.edge_count classic)
    (Overlay.Table.edge_count flat);
  for v = 0 to n - 1 do
    let row_c = Overlay.Table.neighbors classic v in
    let row_f = Overlay.Table.neighbors flat v in
    if row_c <> row_f then
      Alcotest.failf "%s: node %d rows differ (classic %s, flat %s)" what v
        (String.concat "," (Array.to_list (Array.map string_of_int row_c)))
        (String.concat "," (Array.to_list (Array.map string_of_int row_f)));
    Alcotest.(check int)
      (Printf.sprintf "%s: degree %d" what v)
      (Overlay.Table.degree classic v) (Overlay.Table.degree flat v);
    for i = 0 to Overlay.Table.degree classic v - 1 do
      if Overlay.Table.neighbor classic v i <> Overlay.Table.neighbor flat v i then
        Alcotest.failf "%s: neighbor (%d, %d) differs" what v i
    done
  done

(* Same seed, both backends: identical tables AND identical post-build
   PRNG state (the resume-state contract Table_cache relies on). *)
let test_build_equivalence () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let rng_c = Prng.Splitmix.create ~seed:77 in
      let rng_f = Prng.Splitmix.create ~seed:77 in
      let classic = Overlay.Table.build ~rng:rng_c ~bits:6 geometry in
      let flat =
        Overlay.Table.build ~rng:rng_f ~backend:Overlay.Table.Flat ~bits:6 geometry
      in
      Alcotest.(check bool)
        (what ^ ": classic backend") true
        (Overlay.Table.backend classic = Overlay.Table.Classic);
      Alcotest.(check bool)
        (what ^ ": flat backend") true
        (Overlay.Table.backend flat = Overlay.Table.Flat);
      check_tables_equal ~what classic flat;
      Alcotest.(check int64)
        (what ^ ": post-build rng state")
        (Prng.Splitmix.state rng_c) (Prng.Splitmix.state rng_f))
    all_geometries

let test_variant_builders_equivalence () =
  let pairs =
    [
      ( "ring_with_successors",
        fun backend ->
          Overlay.Table.build_ring_with_successors ~backend ~bits:6 ~successors:3 () );
      ( "randomized_ring",
        fun backend ->
          Overlay.Table.build_randomized_ring
            ~rng:(Prng.Splitmix.create ~seed:5) ~backend ~bits:6 () );
      ( "deterministic_xor",
        fun backend -> Overlay.Table.build_deterministic_xor ~backend ~bits:6 () );
      ( "symphony_bidirectional",
        fun backend ->
          Overlay.Table.build_symphony_bidirectional
            ~rng:(Prng.Splitmix.create ~seed:5) ~backend ~bits:6 ~k_n:1 ~k_s:2 () );
    ]
  in
  List.iter
    (fun (what, build) ->
      check_tables_equal ~what (build Overlay.Table.Classic) (build Overlay.Table.Flat))
    pairs

let test_flatten () =
  let rng = Prng.Splitmix.create ~seed:3 in
  let classic = Overlay.Table.build ~rng ~bits:5 Rcm.Geometry.Xor in
  let flat = Overlay.Table.flatten classic in
  Alcotest.(check bool) "flattened" true (Overlay.Table.backend flat = Overlay.Table.Flat);
  check_tables_equal ~what:"flatten" classic flat;
  (* Idempotent: flattening a flat table is the identity. *)
  Alcotest.(check bool) "idempotent" true (Overlay.Table.flatten flat == flat);
  (* No aliasing: mutating the classic rows afterwards must not leak
     into the flat block (churn repairs must stay classic-only). *)
  let rows = Array.init 4 (fun v -> [| (v + 1) mod 4 |]) in
  let mutable_table = Overlay.Table.of_neighbors ~bits:2 Rcm.Geometry.Ring rows in
  let frozen = Overlay.Table.flatten mutable_table in
  rows.(0).(0) <- 3;
  Alcotest.(check int) "mutation visible classically" 3
    (Overlay.Table.neighbor mutable_table 0 0);
  Alcotest.(check int) "flat copy unaffected" 1 (Overlay.Table.neighbor frozen 0 0)

let test_flat_module_basics () =
  let f = Overlay.Flat.of_rows [| [| 1; 2 |]; [| 0 |]; [||]; [| 2; 0; 1 |] |] in
  Alcotest.(check int) "node_count" 4 (Overlay.Flat.node_count f);
  Alcotest.(check int) "edge_count" 6 (Overlay.Flat.edge_count f);
  Alcotest.(check (list int)) "degrees" [ 2; 1; 0; 3 ]
    (List.init 4 (Overlay.Flat.degree f));
  Alcotest.(check (array int)) "row 3" [| 2; 0; 1 |] (Overlay.Flat.row f 3);
  (* [row] is a fresh copy: mutating it does not corrupt the block. *)
  let r = Overlay.Flat.row f 0 in
  r.(0) <- 99;
  Alcotest.(check int) "block unchanged" 1 (Overlay.Flat.neighbor f 0 0);
  Alcotest.(check int) "memory_bytes" ((8 * 5) + (4 * 6)) (Overlay.Flat.memory_bytes f);
  let collected = ref [] in
  Overlay.Flat.iter_neighbors f 3 (fun u -> collected := u :: !collected);
  Alcotest.(check (list int)) "iter order" [ 2; 0; 1 ] (List.rev !collected);
  Alcotest.check_raises "of_rows range check"
    (Invalid_argument "Flat.of_rows: neighbour 7 outside [0, 2)")
    (fun () -> ignore (Overlay.Flat.of_rows [| [| 7 |]; [||] |]));
  Alcotest.check_raises "init range check"
    (Invalid_argument "Flat.init: neighbour -1 outside [0, 3)")
    (fun () -> ignore (Overlay.Flat.init ~nodes:3 ~degree:1 (fun _ _ -> -1)))

let test_backend_names () =
  Alcotest.(check string) "flat" "flat" (Overlay.Table.backend_name Overlay.Table.Flat);
  Alcotest.(check string) "classic" "classic"
    (Overlay.Table.backend_name Overlay.Table.Classic);
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun b -> Overlay.Table.backend_of_string (Overlay.Table.backend_name b) = Some b)
       [ Overlay.Table.Classic; Overlay.Table.Flat ]);
  Alcotest.(check bool) "unknown" true (Overlay.Table.backend_of_string "csr" = None)

(* The cache keys on the backend: the same (geometry, bits, seed) under
   the other backend is a distinct entry, both resume states equal. *)
let test_cache_keys_backend () =
  let cache = Overlay.Table_cache.create () in
  let t_c, resume_c =
    Overlay.Table_cache.get cache ~bits:5 ~build_seed:9L Rcm.Geometry.Xor
  in
  let t_f, resume_f =
    Overlay.Table_cache.get cache ~backend:Overlay.Table.Flat ~bits:5 ~build_seed:9L
      Rcm.Geometry.Xor
  in
  Alcotest.(check int) "two entries" 2 (Overlay.Table_cache.length cache);
  Alcotest.(check int) "two misses" 2 (Overlay.Table_cache.misses cache);
  Alcotest.(check int64) "resume states equal" resume_c resume_f;
  Alcotest.(check bool) "backends differ" true
    (Overlay.Table.backend t_c <> Overlay.Table.backend t_f);
  check_tables_equal ~what:"cache" t_c t_f;
  let t_c2, _ = Overlay.Table_cache.get cache ~bits:5 ~build_seed:9L Rcm.Geometry.Xor in
  Alcotest.(check bool) "classic hit is physical" true (t_c == t_c2);
  Alcotest.(check int) "one hit" 1 (Overlay.Table_cache.hits cache)

let test_digraph_equivalence () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let rng = Prng.Splitmix.create ~seed:12 in
      let classic = Overlay.Table.build ~rng ~bits:5 geometry in
      let flat = Overlay.Table.flatten classic in
      let g_c = Overlay.Table.to_digraph classic in
      let g_f = Overlay.Table.to_digraph flat in
      Alcotest.(check int) (what ^ ": edges") (Graph.Digraph.edge_count g_c)
        (Graph.Digraph.edge_count g_f);
      for v = 0 to Graph.Digraph.node_count g_c - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "%s: successors %d" what v)
          (Graph.Digraph.successors g_c v) (Graph.Digraph.successors g_f v)
      done)
    all_geometries

let bits_of_float = Int64.bits_of_float

let check_results_equal ~what (a : Sim.Estimate.result) (b : Sim.Estimate.result) =
  Alcotest.(check int) (what ^ ": delivered") a.Sim.Estimate.delivered b.Sim.Estimate.delivered;
  Alcotest.(check int) (what ^ ": attempted") a.Sim.Estimate.attempted b.Sim.Estimate.attempted;
  Alcotest.(check int64)
    (what ^ ": routability bits")
    (bits_of_float (Sim.Estimate.routability a))
    (bits_of_float (Sim.Estimate.routability b));
  Alcotest.(check int64)
    (what ^ ": alive bits")
    (bits_of_float a.Sim.Estimate.mean_alive_fraction)
    (bits_of_float b.Sim.Estimate.mean_alive_fraction);
  Alcotest.(check int64)
    (what ^ ": hops bits")
    (bits_of_float (Stats.Summary.mean a.Sim.Estimate.hop_summary))
    (bits_of_float (Stats.Summary.mean b.Sim.Estimate.hop_summary))

(* The estimator is bit-identical across backends, with and without a
   cache, and on a multi-domain pool. *)
let test_estimate_bit_identical () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let cfg =
        Sim.Estimate.config ~trials:2 ~pairs_per_trial:120 ~seed:11 ~bits:6 ~q:0.25 geometry
      in
      let classic = Sim.Estimate.run cfg in
      let flat = Sim.Estimate.run ~backend:Overlay.Table.Flat cfg in
      check_results_equal ~what classic flat;
      let cache = Overlay.Table_cache.create () in
      let flat_cached = Sim.Estimate.run ~cache ~backend:Overlay.Table.Flat cfg in
      check_results_equal ~what:(what ^ "+cache") classic flat_cached;
      Exec.Pool.with_pool ~domains:2 (fun pool ->
          let flat_pooled = Sim.Estimate.run ~pool ~backend:Overlay.Table.Flat cfg in
          check_results_equal ~what:(what ^ "+pool") classic flat_pooled))
    all_geometries

let test_percolation_bit_identical () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let run backend =
        Sim.Percolation.run ~backend ~trials:2 ~pairs:100 ~seed:8 ~bits:6 ~q:0.3 geometry
      in
      let classic = run Overlay.Table.Classic in
      let flat = run Overlay.Table.Flat in
      Alcotest.(check int64)
        (what ^ ": connectivity bits")
        (bits_of_float classic.Sim.Percolation.mean_pair_connectivity)
        (bits_of_float flat.Sim.Percolation.mean_pair_connectivity);
      Alcotest.(check int64)
        (what ^ ": routability bits")
        (bits_of_float classic.Sim.Percolation.mean_routability)
        (bits_of_float flat.Sim.Percolation.mean_routability);
      Alcotest.(check int64)
        (what ^ ": giant bits")
        (bits_of_float classic.Sim.Percolation.mean_giant_fraction)
        (bits_of_float flat.Sim.Percolation.mean_giant_fraction))
    all_geometries

(* Property: for the geometries whose flat tables are rules computing
   the classic entry functions on each read, random (bits, seed) builds
   agree entry-for-entry across backends. Bits 1 is xor without a
   random suffix. *)
let prop_backend_agreement =
  QCheck.Test.make ~count:40 ~name:"flat/classic builds agree"
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (bits, seed) ->
      List.for_all
        (fun geometry ->
          let rng_c = Prng.Splitmix.create ~seed in
          let rng_f = Prng.Splitmix.create ~seed in
          let classic = Overlay.Table.build ~rng:rng_c ~bits geometry in
          let flat =
            Overlay.Table.build ~rng:rng_f ~backend:Overlay.Table.Flat ~bits geometry
          in
          Prng.Splitmix.state rng_c = Prng.Splitmix.state rng_f
          && List.for_all
               (fun v ->
                 Overlay.Table.neighbors classic v = Overlay.Table.neighbors flat v)
               (List.init (Overlay.Table.node_count classic) Fun.id))
        [ Rcm.Geometry.Tree; Rcm.Geometry.Hypercube; Rcm.Geometry.Xor; Rcm.Geometry.Ring ])

(* Every read outside a table raises on both backends, for every
   built-in geometry: without the check a block reads a neighbouring
   row, the offsets sentinel or bytes past its payload, and a rule
   shifts by an unspecified amount. Degree 4 at 16 nodes, except
   Symphony's 2. *)
let test_neighbor_bounds () =
  List.iter
    (fun geometry ->
      List.iter
        (fun backend ->
          let t =
            Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:4) ~backend ~bits:4 geometry
          in
          let what =
            Printf.sprintf "%s/%s" (Rcm.Geometry.slug geometry)
              (Overlay.Table.backend_name backend)
          in
          let n = Overlay.Table.node_count t in
          let last = Overlay.Table.degree t (n - 1) in
          List.iter
            (fun (v, i) ->
              match Overlay.Table.neighbor t v i with
              | u -> Alcotest.failf "%s: neighbor %d %d returned %d" what v i u
              | exception Invalid_argument _ -> ())
            [
              (0, Overlay.Table.degree t 0);
              (n - 1, -1);
              (0, -1);
              (n, 0);
              (-1, 0);
              (n - 1, last);
              (n - 1, 1_000_000);
            ];
          List.iter
            (fun v ->
              match Overlay.Table.degree t v with
              | d -> Alcotest.failf "%s: degree %d returned %d" what v d
              | exception Invalid_argument _ -> ())
            [ -1; n ];
          Alcotest.(check int) (what ^ ": last entry still readable")
            (Overlay.Table.neighbors t (n - 1)).(last - 1)
            (Overlay.Table.neighbor t (n - 1) (last - 1)))
        [ Overlay.Table.Classic; Overlay.Table.Flat ])
    [
      Rcm.Geometry.Tree;
      Rcm.Geometry.Hypercube;
      Rcm.Geometry.Xor;
      Rcm.Geometry.Ring;
      Rcm.Geometry.Symphony { k_n = 1; k_s = 1 };
    ]

(* A rule computes its entries on every read, whole-table walks
   (to_digraph, the scalar routers) included, so reading one must not
   allocate: the xor rule's draw stays unboxed (native code only). *)
let test_rule_reads_allocate_nothing () =
  List.iter
    (fun geometry ->
      let t =
        Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:9) ~backend:Overlay.Table.Flat
          ~bits:16 geometry
      in
      let acc = ref 0 in
      let add u = acc := !acc lxor u in
      let before = Gc.minor_words () in
      for k = 0 to 9_999 do
        let v = k * 6151 land 0xffff in
        add (Overlay.Table.neighbor t v (k mod 16));
        Overlay.Table.iter_neighbors t v add
      done;
      let words = Gc.minor_words () -. before in
      if Sys.backend_type = Sys.Native then
        Alcotest.(check (float 0.0))
          (Rcm.Geometry.slug geometry ^ ": minor words for 10k rule rows")
          0.0 words;
      Alcotest.(check bool) "entries used" true (!acc >= 0))
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring ]

(* --- CLI byte-identity across --overlay and --jobs ----------------------- *)

let binary = Filename.concat (Filename.concat ".." "bin") "dhtlab.exe"

let run_stdout args =
  let command = Filename.quote_command binary args in
  let ic = Unix.open_process_in command in
  let buffer = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buffer ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "dhtlab %s exited with %d" (String.concat " " args) n
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "dhtlab %s killed by signal %d" (String.concat " " args) n);
  Buffer.contents buffer

(* simulate: every geometry, classic/flat x jobs 1/8, one reference
   output per geometry — all seven runs byte-identical. *)
let test_cli_simulate_byte_identical () =
  List.iter
    (fun name ->
      let base =
        [ "simulate"; "-g"; name; "-d"; "7"; "-q"; "0.2"; "--trials"; "2"; "--pairs"; "60" ]
      in
      let reference = run_stdout (base @ [ "--overlay"; "classic"; "-j"; "1" ]) in
      Alcotest.(check bool) (name ^ ": non-empty") true (String.length reference > 0);
      List.iter
        (fun extra ->
          let got = run_stdout (base @ extra) in
          if not (String.equal reference got) then
            Alcotest.failf "simulate %s: %s diverges from classic -j 1" name
              (String.concat " " extra))
        [
          [ "--overlay"; "classic"; "-j"; "8" ];
          [ "--overlay"; "flat"; "-j"; "1" ];
          [ "--overlay"; "flat"; "-j"; "8" ];
        ])
    [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]

(* figure: the two simulation-backed paper figures (f6a covers
   tree/hypercube/xor, f6b ring), both backends, jobs 1 and 8. *)
let test_cli_figure_byte_identical () =
  List.iter
    (fun fig ->
      let base = [ "figure"; fig; "--quick" ] in
      let reference = run_stdout (base @ [ "--overlay"; "classic"; "-j"; "1" ]) in
      List.iter
        (fun extra ->
          let got = run_stdout (base @ extra) in
          if not (String.equal reference got) then
            Alcotest.failf "figure %s: %s diverges from classic -j 1" fig
              (String.concat " " extra))
        [
          [ "--overlay"; "flat"; "-j"; "1" ];
          [ "--overlay"; "flat"; "-j"; "8" ];
          [ "--overlay"; "classic"; "-j"; "8" ];
        ])
    [ "f6a"; "f6b" ]

let suite =
  [
    Alcotest.test_case "build equivalence (5 geometries)" `Quick test_build_equivalence;
    Alcotest.test_case "variant builders equivalence" `Quick test_variant_builders_equivalence;
    Alcotest.test_case "flatten: copy, idempotent, no aliasing" `Quick test_flatten;
    Alcotest.test_case "Flat module basics" `Quick test_flat_module_basics;
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "cache keyed by backend" `Quick test_cache_keys_backend;
    Alcotest.test_case "to_digraph equivalence" `Quick test_digraph_equivalence;
    Alcotest.test_case "estimate bit-identical" `Quick test_estimate_bit_identical;
    Alcotest.test_case "percolation bit-identical" `Quick test_percolation_bit_identical;
    QCheck_alcotest.to_alcotest prop_backend_agreement;
    Alcotest.test_case "neighbor bounds (both backends)" `Quick test_neighbor_bounds;
    Alcotest.test_case "rule reads allocate nothing" `Quick test_rule_reads_allocate_nothing;
    Alcotest.test_case "CLI simulate byte-identical" `Slow test_cli_simulate_byte_identical;
    Alcotest.test_case "CLI figure byte-identical" `Slow test_cli_figure_byte_identical;
  ]
