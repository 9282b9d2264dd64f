(* Built tables against reference rows. Every table [Table.build]
   returns is a rule or a block; entry for entry it must hold the rows
   that evaluating the section 3 neighbour constructions node by node
   gives, and leave the build generator where those evaluations leave
   it. Also pins the Flat module, the bounds of every accessor, and
   bit-identical simulation results and byte-identical CLI output
   between the batch kernel and the scalar router at every domain
   count. *)

(* Symphony beyond the default (1, 1): no near neighbour, several of
   each, more shortcuts than near neighbours and the reverse. *)
let symphony_variants =
  List.map
    (fun (k_n, k_s) -> Rcm.Geometry.Symphony { k_n; k_s })
    [ (0, 1); (2, 3); (1, 4); (3, 2) ]

(* The section 3 neighbour constructions of the five built-in
   geometries, evaluated node by node and entry by entry, drawing from
   [rng] in that order: entry [i] of node [v] is
   - tree (Plaxton) and hypercube (CAN): [v] with bit [i + 1] flipped;
   - xor (Kademlia): that id with its bits below [i + 1] drawn at
     random;
   - ring (Chord): the finger at clockwise distance [2^i];
   - symphony: the [i + 1]-th successor for [i < k_n], then a shortcut
     at a harmonic clockwise distance. *)
let reference_rows ~rng ~bits geometry =
  let size = 1 lsl bits in
  let clockwise v dist = (v + dist) land (size - 1) in
  let flip v i = Idspace.Id.flip_bit ~bits v (i + 1) in
  let degree, entry =
    match geometry with
    | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube -> (bits, flip)
    | Rcm.Geometry.Xor ->
        ( bits,
          fun v i ->
            let suffix = Prng.Splitmix.int rng size in
            Idspace.Id.with_suffix ~bits (flip v i) ~prefix_len:(i + 1) ~suffix )
    | Rcm.Geometry.Ring -> (bits, fun v i -> clockwise v (1 lsl i))
    | Rcm.Geometry.Symphony { k_n; k_s } ->
        ( k_n + k_s,
          fun v i ->
            if i < k_n then clockwise v (i + 1)
            else clockwise v (Prng.Splitmix.harmonic_int rng ~n:(size - 1)) )
    | Rcm.Geometry.Record _ -> invalid_arg "reference_rows: ReCord's rows are checked in test_geom"
  in
  Array.init size (fun v -> Array.init degree (entry v))

let show_row row = String.concat "," (Array.to_list (Array.map string_of_int row))

(* [table] holds exactly [rows], through every accessor. *)
let check_rows ~what rows table =
  Alcotest.(check int) (what ^ ": node_count") (Array.length rows)
    (Overlay.Table.node_count table);
  Array.iteri
    (fun v row ->
      let got = Overlay.Table.neighbors table v in
      if row <> got then
        Alcotest.failf "%s: node %d rows differ (reference %s, built %s)" what v (show_row row)
          (show_row got);
      Alcotest.(check int)
        (Printf.sprintf "%s: degree %d" what v)
        (Array.length row) (Array.length (Overlay.Table.neighbors table v));
      Array.iteri
        (fun i u ->
          if Overlay.Table.neighbor table v i <> u then
            Alcotest.failf "%s: neighbor (%d, %d) differs" what v i)
        row;
      let seen = ref [] in
      Overlay.Table.iter_neighbors table v (fun u -> seen := u :: !seen);
      if Array.of_list (List.rev !seen) <> row then
        Alcotest.failf "%s: iter_neighbors of node %d differs" what v)
    rows

let is_rule table =
  match Overlay.Table.layout table with Some (Overlay.Table.Rule _) -> true | _ -> false

let is_block table =
  match Overlay.Table.layout table with Some (Overlay.Table.Block _) -> true | _ -> false

(* Symphony's layout: [k_s] shortcuts per node in the column, nothing
   stored for the near neighbours. *)
let is_shortcuts ~k_n ~k_s table =
  match Overlay.Table.layout table with
  | Some (Overlay.Table.Shortcuts s) ->
      s.k_n = k_n && s.k_s = k_s
      && Bigarray.Array1.dim s.column = Overlay.Table.node_count table * k_s
  | _ -> false

(* Same seed: the built table equals the reference rows, and the
   generator ends in the same state (the resume-state contract
   Table_cache relies on). Tree, hypercube, xor and ring are rules
   with no payload; Symphony computes its successors and stores its
   shortcuts in a column of 4 bytes each. *)
let test_built_equals_reference () =
  List.iter
    (fun geometry ->
      let what = Fmt.str "%a" Rcm.Geometry.pp geometry in
      let rng_r = Prng.Splitmix.create ~seed:77 in
      let rng_b = Prng.Splitmix.create ~seed:77 in
      let rows = reference_rows ~rng:rng_r ~bits:6 geometry in
      let built = Overlay.Table.build ~rng:rng_b ~bits:6 geometry in
      let layout, payload =
        match geometry with
        | Rcm.Geometry.Symphony { k_n; k_s } -> (is_shortcuts ~k_n ~k_s built, 4 * 64 * k_s)
        | _ -> (is_rule built, 0)
      in
      Alcotest.(check bool) (what ^ ": layout") true layout;
      Alcotest.(check int) (what ^ ": memory_bytes") payload (Overlay.Table.memory_bytes built);
      check_rows ~what rows built;
      Alcotest.(check int64)
        (what ^ ": post-build rng state")
        (Prng.Splitmix.state rng_r) (Prng.Splitmix.state rng_b))
    (Rcm.Geometry.all_default @ symphony_variants)

let test_flatten () =
  let rows = reference_rows ~rng:(Prng.Splitmix.create ~seed:3) ~bits:5 Rcm.Geometry.Xor in
  let flat = Overlay.Table.flatten (Overlay.Table.of_neighbors ~bits:5 Rcm.Geometry.Xor rows) in
  Alcotest.(check bool) "flattened to a block" true (is_block flat);
  check_rows ~what:"flatten" rows flat;
  (* Idempotent: a block or a rule is already flat. *)
  Alcotest.(check bool) "idempotent" true (Overlay.Table.flatten flat == flat);
  let rule = Overlay.Table.build ~bits:5 Rcm.Geometry.Ring in
  Alcotest.(check bool) "rule unchanged" true (Overlay.Table.flatten rule == rule);
  (* No aliasing: mutating the rows afterwards must not leak into the
     flat block (churn repairs stay on its own matrix). *)
  let rows = Array.init 4 (fun v -> [| (v + 1) mod 4 |]) in
  let mutable_table = Overlay.Table.of_neighbors ~bits:2 Rcm.Geometry.Ring rows in
  Alcotest.(check bool) "rows have no layout" true (Overlay.Table.layout mutable_table = None);
  let frozen = Overlay.Table.flatten mutable_table in
  rows.(0).(0) <- 3;
  Alcotest.(check int) "mutation visible in the rows" 3
    (Overlay.Table.neighbor mutable_table 0 0);
  Alcotest.(check int) "flat copy unaffected" 1 (Overlay.Table.neighbor frozen 0 0)

let test_flat_module_basics () =
  let f = Overlay.Flat.of_rows [| [| 1; 2 |]; [| 0 |]; [||]; [| 2; 0; 1 |] |] in
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

(* [f] with the batch kernel off: the scalar router's reference. *)
let scalar f =
  Routing.Route_batch.set_enabled false;
  Fun.protect ~finally:(fun () -> Routing.Route_batch.set_enabled true) f

(* The estimator on the batch kernel is bit-identical to the scalar
   router, with and without a cache, and on a multi-domain pool. *)
let test_estimate_bit_identical () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let cfg =
        Sim.Estimate.config ~trials:2 ~pairs_per_trial:120 ~seed:11 ~bits:6 ~q:0.25 geometry
      in
      let reference = scalar (fun () -> Sim.Estimate.run cfg) in
      check_results_equal ~what reference (Sim.Estimate.run cfg);
      let cache = Overlay.Table_cache.create () in
      check_results_equal ~what:(what ^ "+cache") reference (Sim.Estimate.run ~cache cfg);
      Exec.Pool.with_pool ~domains:2 (fun pool ->
          check_results_equal ~what:(what ^ "+pool") reference (Sim.Estimate.run ~pool cfg)))
    Rcm.Geometry.all

let test_percolation_bit_identical () =
  List.iter
    (fun geometry ->
      let what = Rcm.Geometry.slug geometry in
      let run () = Sim.Percolation.run ~trials:2 ~pairs:100 ~seed:8 ~bits:6 ~q:0.3 geometry in
      let reference = scalar run in
      let batch = run () in
      Alcotest.(check int64)
        (what ^ ": connectivity bits")
        (bits_of_float reference.Sim.Percolation.mean_pair_connectivity)
        (bits_of_float batch.Sim.Percolation.mean_pair_connectivity);
      Alcotest.(check int64)
        (what ^ ": routability bits")
        (bits_of_float reference.Sim.Percolation.mean_routability)
        (bits_of_float batch.Sim.Percolation.mean_routability);
      Alcotest.(check int64)
        (what ^ ": giant bits")
        (bits_of_float reference.Sim.Percolation.mean_giant_fraction)
        (bits_of_float batch.Sim.Percolation.mean_giant_fraction))
    Rcm.Geometry.all

(* Property: random (bits, seed) builds equal the reference rows,
   generator state included, for every built-in geometry and Symphony
   variant the size admits. Bits 1 is xor without a random suffix, and
   a two-node Symphony whose one shortcut is clamped to distance 1. *)
let prop_built_equals_reference =
  QCheck.Test.make ~count:40 ~name:"built = reference rows (random bits, seeds)"
    QCheck.(pair (int_range 1 12) small_nat)
    (fun (bits, seed) ->
      List.for_all
        (fun geometry ->
          let rng_r = Prng.Splitmix.create ~seed in
          let rng_b = Prng.Splitmix.create ~seed in
          let rows = reference_rows ~rng:rng_r ~bits geometry in
          let built = Overlay.Table.build ~rng:rng_b ~bits geometry in
          Prng.Splitmix.state rng_r = Prng.Splitmix.state rng_b
          && Seq.for_all
               (fun (v, row) -> Overlay.Table.neighbors built v = row)
               (Array.to_seqi rows))
        (List.filter
           (fun g -> Rcm.Geometry.check_size ~bits g = Ok ())
           (Rcm.Geometry.all_default @ symphony_variants)))

(* Every read outside a table raises, on churn's rows and on built
   tables, for every built-in geometry: without the check a block reads
   a neighbouring row, the offsets sentinel or bytes past its payload,
   and a rule shifts by an unspecified amount. Degree 4 at 16 nodes,
   except Symphony's 2. *)
let test_neighbor_bounds () =
  List.iter
    (fun geometry ->
      let rows = reference_rows ~rng:(Prng.Splitmix.create ~seed:4) ~bits:4 geometry in
      List.iter
        (fun (kind, t) ->
          let what = Printf.sprintf "%s/%s" (Rcm.Geometry.slug geometry) kind in
          let n = Overlay.Table.node_count t in
          let last = Array.length (Overlay.Table.neighbors t (n - 1)) in
          List.iter
            (fun (v, i) ->
              match Overlay.Table.neighbor t v i with
              | u -> Alcotest.failf "%s: neighbor %d %d returned %d" what v i u
              | exception Invalid_argument _ -> ())
            [
              (0, Array.length (Overlay.Table.neighbors t 0));
              (n - 1, -1);
              (0, -1);
              (n, 0);
              (-1, 0);
              (n - 1, last);
              (n - 1, 1_000_000);
            ];
          List.iter
            (fun v ->
              match Array.length (Overlay.Table.neighbors t v) with
              | d -> Alcotest.failf "%s: degree %d returned %d" what v d
              | exception Invalid_argument _ -> ())
            [ -1; n ];
          Alcotest.(check int) (what ^ ": last entry still readable")
            (Overlay.Table.neighbors t (n - 1)).(last - 1)
            (Overlay.Table.neighbor t (n - 1) (last - 1)))
        [
          ("rows", Overlay.Table.of_neighbors ~bits:4 geometry rows);
          ("built", Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:4) ~bits:4 geometry);
        ])
    Rcm.Geometry.all_default

(* A rule computes its entries on every read, whole-table walks
   (component analysis, the scalar routers) included, so reading one
   must not allocate: the xor rule's draw stays unboxed (native code
   only). *)
let test_rule_reads_allocate_nothing () =
  List.iter
    (fun geometry ->
      let t = Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:9) ~bits:16 geometry in
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

(* --- CLI byte-identity across --no-batch and --jobs ------------------------ *)

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

(* figure: the two simulation-backed paper figures (f6a covers
   tree/hypercube/xor, f6b ring) on the scalar router at one job, then
   on the batch kernel at jobs 1 and 8. *)
let test_cli_figure_byte_identical () =
  List.iter
    (fun fig ->
      let base = [ "figure"; fig; "--quick" ] in
      let reference = run_stdout (base @ [ "--no-batch"; "-j"; "1" ]) in
      List.iter
        (fun extra ->
          let got = run_stdout (base @ extra) in
          if not (String.equal reference got) then
            Alcotest.failf "figure %s: %s diverges from --no-batch -j 1" fig
              (String.concat " " extra))
        [ [ "-j"; "1" ]; [ "-j"; "8" ] ])
    [ "f6a"; "f6b" ]

let suite =
  [
    Alcotest.test_case "built = reference rows (5 geometries)" `Quick
      test_built_equals_reference;
    Alcotest.test_case "flatten: copy, idempotent, no aliasing" `Quick test_flatten;
    Alcotest.test_case "Flat module basics" `Quick test_flat_module_basics;
    Alcotest.test_case "estimate bit-identical" `Quick test_estimate_bit_identical;
    Alcotest.test_case "percolation bit-identical" `Quick test_percolation_bit_identical;
    QCheck_alcotest.to_alcotest prop_built_equals_reference;
    Alcotest.test_case "neighbor bounds (rows and built)" `Quick test_neighbor_bounds;
    Alcotest.test_case "rule reads allocate nothing" `Quick test_rule_reads_allocate_nothing;
    Alcotest.test_case "CLI figure byte-identical" `Slow test_cli_figure_byte_identical;
  ]
