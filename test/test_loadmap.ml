(* Obs.Loadmap / Obs.Loadmap_report: the off-heap per-node load
   counters behind [dhtlab hotspots]. The load-bearing properties are
   the determinism contracts — batch and scalar routing bump the same
   per-node counters, and a sweep merges to identical bytes at any
   pool size — plus the CSV persistence roundtrip and the summary
   statistics, which are checked against hand-computed fixtures. Also
   hosts the Obs.Progress.safe_rate ETA regression. *)

let all_geometries =
  [
    Rcm.Geometry.Tree;
    Rcm.Geometry.Hypercube;
    Rcm.Geometry.Xor;
    Rcm.Geometry.Ring;
    Rcm.Geometry.default_symphony;
  ]

(* --- counter core ----------------------------------------------------------- *)

let csv_header = "node,traversals,terminations,storage_reads,repairs"

let test_create_record_get () =
  let lm = Obs.Loadmap.create ~nodes:4 in
  Alcotest.(check int) "nodes" 4 (Obs.Loadmap.nodes lm);
  List.iter
    (fun kind ->
      Alcotest.(check int)
        ("fresh " ^ Obs.Loadmap.kind_name kind)
        0
        (Helpers.loadmap_total lm kind))
    Obs.Loadmap.all_kinds;
  Obs.Loadmap.record lm Obs.Loadmap.Route_traversal 2;
  Obs.Loadmap.record lm Obs.Loadmap.Route_traversal 2;
  Obs.Loadmap.record lm Obs.Loadmap.Repair 0;
  Alcotest.(check int) "bumped twice" 2 ((Obs.Loadmap.counts lm Obs.Loadmap.Route_traversal).(2));
  Alcotest.(check int) "other node untouched" 0
    ((Obs.Loadmap.counts lm Obs.Loadmap.Route_traversal).(3));
  Alcotest.(check int) "kinds are independent" 0
    ((Obs.Loadmap.counts lm Obs.Loadmap.Route_termination).(2));
  Alcotest.(check int) "repair bumped" 1 ((Obs.Loadmap.counts lm Obs.Loadmap.Repair).(0));
  Alcotest.(check (array int)) "counts copy" [| 0; 0; 2; 0 |]
    (Obs.Loadmap.counts lm Obs.Loadmap.Route_traversal);
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "record past range" true
    (bad (fun () -> Obs.Loadmap.record lm Obs.Loadmap.Repair 4));
  Alcotest.(check bool) "record negative node" true
    (bad (fun () -> Obs.Loadmap.record lm Obs.Loadmap.Repair (-1)));
  Alcotest.(check bool) "zero-node map rejected" true
    (bad (fun () -> Obs.Loadmap.create ~nodes:0))

(* [slice] is a zero-copy view: the batch kernel writes through it and
   the report layer must see the bumps in the owning map. *)
let test_slice_aliases_map () =
  let lm = Obs.Loadmap.create ~nodes:3 in
  let trav = Obs.Loadmap.slice lm Obs.Loadmap.Route_traversal in
  Alcotest.(check int) "slice dim" 3 (Bigarray.Array1.dim trav);
  trav.{1} <- trav.{1} + 5;
  Obs.Loadmap.record lm Obs.Loadmap.Route_traversal 1;
  Alcotest.(check int) "write-through both ways" 6
    ((Obs.Loadmap.counts lm Obs.Loadmap.Route_traversal).(1));
  Alcotest.(check int) "total over the slice" 6
    (Helpers.loadmap_total lm Obs.Loadmap.Route_traversal);
  (* Neighbouring kinds live in the same Bigarray; a slice write must
     not leak across the kind boundary. *)
  Alcotest.(check int) "termination slice untouched" 0
    (Helpers.loadmap_total lm Obs.Loadmap.Route_termination)

let test_merge_and_equal () =
  let a = Obs.Loadmap.create ~nodes:3 in
  let b = Obs.Loadmap.create ~nodes:3 in
  Obs.Loadmap.record a Obs.Loadmap.Route_traversal 0;
  Obs.Loadmap.record b Obs.Loadmap.Route_traversal 0;
  Obs.Loadmap.record b Obs.Loadmap.Storage_read 2;
  Alcotest.(check bool) "different maps" false (Helpers.loadmap_equal a b);
  Obs.Loadmap.merge_into ~dst:a b;
  Alcotest.(check int) "summed" 2 ((Obs.Loadmap.counts a Obs.Loadmap.Route_traversal).(0));
  Alcotest.(check int) "adopted" 1 ((Obs.Loadmap.counts a Obs.Loadmap.Storage_read).(2));
  Alcotest.(check int) "source unchanged" 1 ((Obs.Loadmap.counts b Obs.Loadmap.Route_traversal).(0));
  (* Merge commutes: b + a from fresh equals a's state reached as a + b. *)
  let c = Obs.Loadmap.create ~nodes:3 in
  Obs.Loadmap.merge_into ~dst:c b;
  Obs.Loadmap.record c Obs.Loadmap.Route_traversal 0;
  Alcotest.(check bool) "commutative" true (Helpers.loadmap_equal a c);
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       Obs.Loadmap.merge_into ~dst:a (Obs.Loadmap.create ~nodes:5);
       false
     with Invalid_argument _ -> true)

let with_temp_file f =
  let path = Filename.temp_file "dht_rcm_test" ".loadmap.csv" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_csv_roundtrip () =
  with_temp_file (fun path ->
      let lm = Obs.Loadmap.create ~nodes:5 in
      Obs.Loadmap.record lm Obs.Loadmap.Route_traversal 0;
      Obs.Loadmap.record lm Obs.Loadmap.Route_termination 4;
      Obs.Loadmap.record lm Obs.Loadmap.Storage_read 2;
      Obs.Loadmap.record lm Obs.Loadmap.Storage_read 2;
      Obs.Loadmap.record lm Obs.Loadmap.Repair 3;
      Obs.Loadmap.save lm path;
      let back = Obs.Loadmap.load path in
      Alcotest.(check bool) "roundtrip" true (Helpers.loadmap_equal lm back);
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string) "header" csv_header header)

let test_load_corrupt () =
  let write lines path =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let corrupt ~what lines =
    with_temp_file (fun path ->
        write lines path;
        match Obs.Loadmap.load path with
        | _ -> Alcotest.fail (what ^ ": accepted")
        | exception Obs.Loadmap.Corrupt _ -> ())
  in
  corrupt ~what:"empty file" [];
  corrupt ~what:"bad header" [ "node,travs" ];
  corrupt ~what:"no rows" [ csv_header ];
  corrupt ~what:"short row" [ csv_header; "0,1,2,3" ];
  corrupt ~what:"non-integer field" [ csv_header; "0,1,2,x,4" ];
  corrupt ~what:"out-of-order rows"
    [ csv_header; "1,0,0,0,0"; "0,0,0,0,0" ]

(* --- the domain-local sink --------------------------------------------------- *)

let test_sink_gating_and_nesting () =
  Alcotest.(check bool) "disabled outside scopes" false (Obs.Loadmap.sink () <> None);
  Alcotest.(check bool) "no sink installed" true (Obs.Loadmap.sink () = None);
  (* A note with no sink must be a silent no-op, not an error. *)
  Obs.Loadmap.note Obs.Loadmap.Route_traversal 0;
  let outer = Obs.Loadmap.create ~nodes:4 in
  let inner = Obs.Loadmap.create ~nodes:4 in
  Obs.Loadmap.with_sink outer (fun () ->
      Alcotest.(check bool) "enabled inside" true (Obs.Loadmap.sink () <> None);
      Obs.Loadmap.note Obs.Loadmap.Route_traversal 1;
      Obs.Loadmap.with_sink inner (fun () ->
          Alcotest.(check bool) "innermost wins" true
            (match Obs.Loadmap.sink () with Some t -> t == inner | None -> false);
          Obs.Loadmap.note Obs.Loadmap.Route_traversal 2);
      Alcotest.(check bool) "outer restored" true
        (match Obs.Loadmap.sink () with Some t -> t == outer | None -> false);
      Obs.Loadmap.note Obs.Loadmap.Route_traversal 3);
  Alcotest.(check bool) "disabled after scope" false (Obs.Loadmap.sink () <> None);
  Alcotest.(check (array int)) "outer got its notes" [| 0; 1; 0; 1 |]
    (Obs.Loadmap.counts outer Obs.Loadmap.Route_traversal);
  Alcotest.(check (array int)) "inner got the nested note" [| 0; 0; 1; 0 |]
    (Obs.Loadmap.counts inner Obs.Loadmap.Route_traversal);
  (* The restore also runs on the exception path. *)
  (try
     Obs.Loadmap.with_sink outer (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false (Obs.Loadmap.sink () <> None)

(* --- report statistics ------------------------------------------------------- *)

(* A loadmap whose traversal counters are [counts]. *)
let loadmap_of counts =
  let lm = Obs.Loadmap.create ~nodes:(Array.length counts) in
  Array.iteri
    (fun v c ->
      for _ = 1 to c do
        Obs.Loadmap.record lm Obs.Loadmap.Route_traversal v
      done)
    counts;
  lm

let summarize_counts counts =
  Obs.Loadmap_report.summarize (loadmap_of counts) Obs.Loadmap.Route_traversal

let gini counts = (summarize_counts counts).Obs.Loadmap_report.gini

let test_gini () =
  Alcotest.(check (float 1e-12)) "all zero" 0.0 (gini [| 0; 0; 0 |]);
  Alcotest.(check (float 1e-12)) "uniform" 0.0 (gini [| 7; 7; 7; 7 |]);
  (* Rank formula on sorted [0;0;0;12]: 2*(4*12)/(4*12) - 5/4 = 0.75. *)
  Alcotest.(check (float 1e-12)) "one hot node" 0.75
    (gini [| 0; 12; 0; 0 |]);
  (* Order-independent. *)
  Alcotest.(check (float 1e-12)) "permutation invariant"
    (gini [| 1; 2; 3; 4 |])
    (gini [| 4; 1; 3; 2 |])

let test_summary () =
  let s = summarize_counts [| 0; 3; 0; 9 |] in
  Alcotest.(check int) "nodes" 4 s.Obs.Loadmap_report.nodes;
  Alcotest.(check int) "active" 2 s.Obs.Loadmap_report.active_nodes;
  Alcotest.(check int) "total" 12 s.Obs.Loadmap_report.total;
  Alcotest.(check (float 1e-12)) "mean over all nodes" 3.0 s.Obs.Loadmap_report.mean;
  Alcotest.(check int) "max" 9 s.Obs.Loadmap_report.max;
  Alcotest.(check (float 1e-12)) "congestion = max/mean" 3.0
    s.Obs.Loadmap_report.congestion;
  let z = summarize_counts [| 0; 0 |] in
  Alcotest.(check (float 1e-12)) "congestion 0 when idle" 0.0
    z.Obs.Loadmap_report.congestion;
  Alcotest.(check (float 1e-12)) "gini 0 when idle" 0.0 z.Obs.Loadmap_report.gini

let test_cdf_and_hottest () =
  let hottest ~top counts =
    let report = Fmt.str "%a" (fun ppf -> Obs.Loadmap_report.pp ~top ppf) (loadmap_of counts) in
    List.find (fun line -> Astring_contains.contains line "hottest:") (String.split_on_char '\n' report)
  in
  (* Load descending, node index ascending on ties: deterministic. *)
  Alcotest.(check string) "hottest with ties" "  hottest: 1:5 0:2 3:2"
    (hottest ~top:3 [| 2; 5; 1; 2 |]);
  Alcotest.(check string) "top larger than n" "  hottest: 0:4" (hottest ~top:10 [| 4; 0 |])

(* --- Obs.Progress.safe_rate regression --------------------------------------- *)

(* A group's first trials can complete inside the rate-limit window,
   handing the renderer elapsed = 0 (or denormal garbage after a clock
   step); the ETA must come out as the 0.0 sentinel, never inf/nan. *)
let test_progress_safe_rate () =
  List.iter
    (fun (what, completed, elapsed) ->
      Alcotest.(check (float 0.0)) what 0.0
        (Obs.Progress.safe_rate ~completed ~elapsed))
    [
      ("zero elapsed", 100, 0.0);
      ("sub-microsecond elapsed", 100, 1e-9);
      ("negative elapsed", 100, -2.0);
      ("nan elapsed", 100, Float.nan);
      ("infinite elapsed", 100, Float.infinity);
      ("nothing completed", 0, 3.0);
      ("overflowing quotient", max_int, Float.min_float);
    ];
  Alcotest.(check (float 1e-9)) "normal rate" 50.0
    (Obs.Progress.safe_rate ~completed:100 ~elapsed:2.0);
  Alcotest.(check bool) "finite just past the guard" true
    (Float.is_finite (Obs.Progress.safe_rate ~completed:100 ~elapsed:2e-6))

(* --- batch kernel versus scalar routers: per-node counters -------------------- *)

let flat_table ~seed ~bits geometry =
  Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed) ~bits geometry

(* The C kernel accumulates into Bigarray slices; the scalar routers
   go through [note]. For every geometry and failure level the two
   paths must produce the identical loadmap — the contract that makes
   [--no-batch] invisible in [dhtlab hotspots] output. *)
let test_batch_scalar_loadmap_equal () =
  List.iter
    (fun geometry ->
      let name = Rcm.Geometry.name geometry in
      let table = flat_table ~seed:42 ~bits:6 geometry in
      let nodes = Overlay.Table.node_count table in
      List.iteri
        (fun qi q ->
          let alive =
            Overlay.Failure.sample
              ~rng:(Prng.Splitmix.create ~seed:(700 + qi))
              ~q nodes
          in
          let pool = Overlay.Failure.survivors alive in
          if Array.length pool >= 2 then begin
            let pairs = 200 in
            let lm_batch = Obs.Loadmap.create ~nodes in
            let lm_scalar = Obs.Loadmap.create ~nodes in
            Obs.Loadmap.with_sink lm_batch (fun () ->
                ignore
                  (Routing.Route_batch.sample_and_route table
                     ~rng:(Prng.Splitmix.create ~seed:9)
                     ~alive ~pool ~pairs));
            Obs.Loadmap.with_sink lm_scalar (fun () ->
                let rng = Prng.Splitmix.create ~seed:9 in
                for _ = 1 to pairs do
                  let src, dst = Stats.Sampler.ordered_pair rng pool in
                  ignore (Routing.Router.route table ~rng ~alive ~src ~dst)
                done);
            if not (Helpers.loadmap_equal lm_batch lm_scalar) then
              Alcotest.failf "%s q=%g: batch and scalar loadmaps differ" name q;
            (* Every pair terminates exactly once, somewhere. *)
            Alcotest.(check int)
              (Printf.sprintf "%s q=%g: one termination per pair" name q)
              pairs
              (Helpers.loadmap_total lm_batch Obs.Loadmap.Route_termination)
          end)
        [ 0.0; 0.3; 0.9 ])
    all_geometries

(* With no sink installed the batch kernel must not record anywhere —
   the disabled path hands the C stub empty slices. *)
let test_batch_without_sink_records_nothing () =
  let table = flat_table ~seed:3 ~bits:6 Rcm.Geometry.Xor in
  let nodes = Overlay.Table.node_count table in
  let alive = Overlay.Failure.none nodes in
  let pool = Overlay.Failure.survivors alive in
  let lm = Obs.Loadmap.create ~nodes in
  ignore
    (Routing.Route_batch.sample_and_route table
       ~rng:(Prng.Splitmix.create ~seed:1)
       ~alive ~pool ~pairs:50);
  Alcotest.(check bool) "still all zero" true
    (Helpers.loadmap_equal lm (Obs.Loadmap.create ~nodes))

(* --- Storage.Store: loads and the loadmap agree ------------------------------- *)

let test_store_loads_match_loadmap () =
  let rng = Prng.Splitmix.create ~seed:21 in
  let overlay = Overlay.Sparse.build ~rng ~bits:8 ~nodes:64 Rcm.Geometry.Ring in
  let store =
    Storage.Store.create ~zipf_s:0.8 ~keys:8
      ~quorum:(Storage.Quorum.make ~r:3 ~rq:2 ~wq:2)
      ~rng overlay
  in
  let nodes = Overlay.Sparse.node_count overlay in
  let alive = Overlay.Failure.sample ~rng:(Prng.Splitmix.create ~seed:5) ~q:0.2 nodes in
  let lm = Obs.Loadmap.create ~nodes in
  Obs.Loadmap.with_sink lm (fun () ->
      let clients = Overlay.Failure.survivors alive in
      Array.iter
        (fun client -> ignore (Storage.Store.read store ~rng ~alive ~client))
        clients);
  Alcotest.(check (array int)) "Store.loads = Storage_read counters"
    (Storage.Store.loads store)
    (Obs.Loadmap.counts lm Obs.Loadmap.Storage_read);
  Alcotest.(check bool) "some reads landed" true
    (Helpers.loadmap_total lm Obs.Loadmap.Storage_read > 0)

(* --- Hotspot_sweep: pool-size determinism ------------------------------------- *)

let tiny_config =
  {
    Experiments.Hotspot_sweep.bits = 6;
    pairs = 50;
    qs = [ 0.2 ];
    storage_nodes = 32;
    keys = 8;
    reads = 32;
    r = 3;
    storage_q = 0.3;
    zipf_ss = [ 0.8 ];
    trials = 2;
    seed = 5;
  }

let run_tiny ~domains =
  Exec.Pool.with_pool ~domains (fun pool ->
      Experiments.Hotspot_sweep.run ~pool
        ~routing_geometries:[ Rcm.Geometry.Xor; Rcm.Geometry.Ring ]
        ~storage_geometries:[ Rcm.Geometry.Ring ]
        tiny_config)

(* Per-point seeds derive from the grid index, so the same sweep on 1
   and 4 domains must agree counter-for-counter, point-for-point. *)
let test_hotspot_sweep_jobs_identical () =
  let a = run_tiny ~domains:1 in
  let b = run_tiny ~domains:4 in
  Alcotest.(check int) "same point count" (List.length a) (List.length b);
  Alcotest.(check int) "grid shape" 3 (List.length a);
  List.iteri
    (fun i (pa, pb) ->
      let open Experiments.Hotspot_sweep in
      Alcotest.(check string)
        (Printf.sprintf "point %d: plane" i)
        (plane_tag pa.plane) (plane_tag pb.plane);
      Alcotest.(check string)
        (Printf.sprintf "point %d: geometry" i)
        (Rcm.Geometry.name pa.geometry)
        (Rcm.Geometry.name pb.geometry);
      if not (Helpers.loadmap_equal pa.loadmap pb.loadmap) then
        Alcotest.failf "point %d: loadmaps differ between 1 and 4 domains" i;
      Alcotest.(check bool)
        (Printf.sprintf "point %d: summaries" i)
        true
        (pa.traversals = pb.traversals
        && pa.terminations = pb.terminations
        && pa.storage_reads = pb.storage_reads
        && pa.repairs = pb.repairs))
    (List.combine a b);
  match
    ( Experiments.Hotspot_sweep.(merged Routing a, merged Routing b),
      Experiments.Hotspot_sweep.(merged Storage a, merged Storage b) )
  with
  | (Some ra, Some rb), (Some sa, Some sb) ->
      Alcotest.(check bool) "merged routing maps equal" true (Helpers.loadmap_equal ra rb);
      Alcotest.(check bool) "merged storage maps equal" true (Helpers.loadmap_equal sa sb)
  | _ -> Alcotest.fail "a plane lost its merged loadmap"

let suite =
  [
    Alcotest.test_case "create/record/get" `Quick test_create_record_get;
    Alcotest.test_case "slice aliases the map" `Quick test_slice_aliases_map;
    Alcotest.test_case "merge_into/equal" `Quick test_merge_and_equal;
    Alcotest.test_case "CSV roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "load rejects corrupt files" `Quick test_load_corrupt;
    Alcotest.test_case "sink gating and nesting" `Quick test_sink_gating_and_nesting;
    Alcotest.test_case "gini fixtures" `Quick test_gini;
    Alcotest.test_case "summary fixtures" `Quick test_summary;
    Alcotest.test_case "cdf and hottest" `Quick test_cdf_and_hottest;
    Alcotest.test_case "progress safe_rate regression" `Quick test_progress_safe_rate;
    Alcotest.test_case "batch = scalar loadmaps (5 geometries x q)" `Quick
      test_batch_scalar_loadmap_equal;
    Alcotest.test_case "no sink, no counts" `Quick test_batch_without_sink_records_nothing;
    Alcotest.test_case "Store.loads = loadmap reads" `Quick test_store_loads_match_loadmap;
    Alcotest.test_case "hotspot sweep: 1 = 4 domains" `Quick
      test_hotspot_sweep_jobs_identical;
  ]
