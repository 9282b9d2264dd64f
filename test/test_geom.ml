open Helpers

(* The geometry list and ReCord: parsing, slug identity, one member of
   Rcm.Geometry.all per constructor, what every geometry supports, the
   record table and router invariants, the h = 2 draw-for-draw
   degeneration to the xor geometry, and the E13 hop-pmf tolerance. *)

let paper_names = [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]

let test_registry_basics () =
  Alcotest.(check (list string))
    "the paper's five, then record" (paper_names @ [ "record" ])
    (List.map Rcm.Geometry.name Rcm.Geometry.all);
  Alcotest.(check (list string))
    "all_default is the paper's five" paper_names
    (List.map Rcm.Geometry.name Rcm.Geometry.all_default);
  (* slug = name for the paper's geometries: the checkpoint-key and
     byte-identity contract that keeps older artefacts replayable. *)
  List.iter
    (fun g ->
      Alcotest.(check string) (Rcm.Geometry.name g ^ " slug is bare name") (Rcm.Geometry.name g)
        (Rcm.Geometry.slug g))
    Rcm.Geometry.all_default;
  Alcotest.(check string) "record in all" "record:h=2"
    (Rcm.Geometry.slug (List.nth Rcm.Geometry.all 5));
  Alcotest.(check string) "record system" "ReCord"
    (Rcm.Geometry.system (Rcm.Geometry.Record { h = 4 }));
  Alcotest.(check string) "record pp" "record(h=4)"
    (Fmt.str "%a" Rcm.Geometry.pp (Rcm.Geometry.Record { h = 4 }))

(* No wildcard: a new constructor fails to compile here until it gets
   an arm naming its member of Rcm.Geometry.all, and [one_each] below
   one value of it. *)
let member_of_all = function
  | Rcm.Geometry.Tree -> Rcm.Geometry.Tree
  | Rcm.Geometry.Hypercube -> Rcm.Geometry.Hypercube
  | Rcm.Geometry.Xor -> Rcm.Geometry.Xor
  | Rcm.Geometry.Ring -> Rcm.Geometry.Ring
  | Rcm.Geometry.Symphony _ -> Rcm.Geometry.default_symphony
  | Rcm.Geometry.Record _ -> Rcm.Geometry.Record { h = 2 }

let one_each =
  Rcm.Geometry.
    [ Tree; Hypercube; Xor; Ring; Symphony { k_n = 3; k_s = 2 }; Record { h = 64 } ]

let test_one_member_per_constructor () =
  Alcotest.(check (list string))
    "all holds each constructor's member, once, in constructor order"
    (List.map Rcm.Geometry.slug Rcm.Geometry.all)
    (List.map (fun g -> Rcm.Geometry.slug (member_of_all g)) one_each);
  List.iter
    (fun g ->
      Alcotest.(check bool) (Rcm.Geometry.slug g ^ " is its constructor's member") true
        (Rcm.Geometry.equal g (member_of_all g)))
    Rcm.Geometry.all

(* ReCord at every base its rule admits. *)
let records = List.init 10 (fun i -> Rcm.Geometry.Record { h = 1 lsl (i + 1) })

let test_slug_roundtrip () =
  List.iter
    (fun g ->
      let slug = Rcm.Geometry.slug g in
      match Rcm.Geometry.of_string slug with
      | Error e -> Alcotest.failf "%s: parse failed: %s" slug e
      | Ok g' -> Alcotest.(check bool) (slug ^ ": roundtrip") true (Rcm.Geometry.equal g g'))
    (Rcm.Geometry.all @ records)

let parses_to s expected =
  match Rcm.Geometry.of_string s with
  | Ok g -> Alcotest.(check string) (Printf.sprintf "%S" s) expected (Rcm.Geometry.slug g)
  | Error e -> Alcotest.failf "%S: %s" s e

let test_record_spellings () =
  List.iter
    (fun (s, slug) -> parses_to s slug)
    [
      ("record", "record:h=2");
      ("record:h=4", "record:h=4");
      ("rechord:h=4", "record:h=4");
      ("rechord", "record:h=2");
      ("RECORD:H=8", "record:h=8");
      (" record:h=16 ", "record:h=16");
      ("record:h=04", "record:h=4");
      ("record:h=1024", "record:h=1024");
      ("kademlia", "xor");
      ("small-world", "symphony");
    ]

let test_record_parse_errors () =
  List.iter
    (fun (s, expected) ->
      match Rcm.Geometry.of_string s with
      | Ok g -> Alcotest.failf "%S: accepted as %s" s (Rcm.Geometry.slug g)
      | Error e -> Alcotest.(check string) (Printf.sprintf "%S" s) expected e)
    [
      ("record:h=3", "geometry record: h must be a power of two");
      ("record:h=0", "geometry record: h must be in 2..1024");
      ("record:h=-4", "geometry record: h must be in 2..1024");
      ("record:h=2048", "geometry record: h must be in 2..1024");
      ("record:k=2", "geometry record has no parameter \"k\" (valid: h)");
      ("record:h=4:k=2", "geometry record has no parameter \"k\" (valid: h)");
      ("record:h=two", "geometry parameter \"h=two\" is not of the form key=int");
      ("record:h", "geometry parameter \"h\" is not of the form key=int");
      ("record:", "geometry parameter \"\" is not of the form key=int");
      ("record:h=0x4", "geometry parameter \"h=0x4\" is not of the form key=int");
      ("record:h=4_", "geometry parameter \"h=4_\" is not of the form key=int");
      ("record:h=+4", "geometry parameter \"h=+4\" is not of the form key=int");
      ("record:h=4:h=8", "geometry record: parameter \"h\" is given more than once");
      ("record:h=4:h=4", "geometry record: parameter \"h\" is given more than once");
      ("symphony:k_n=2", "geometry symphony takes no parameters");
      ("kademlia:h=2", "geometry kademlia takes no parameters");
      ("foo", "unknown geometry \"foo\"");
      ("", "unknown geometry \"\"");
      ("foo:h=4", "unknown geometry family \"foo\"");
    ]

(* The constructor is public, so the builders apply ReCord's rule to
   what the parser would have rejected, and its digit width to bits. *)
let test_record_size_rule () =
  List.iter
    (fun (h, bits, message) ->
      let g = Rcm.Geometry.Record { h } in
      Alcotest.check_raises
        (Printf.sprintf "Table.build h=%d bits=%d" h bits)
        (Invalid_argument ("Table.build: " ^ message))
        (fun () -> ignore (Overlay.Table.build ~bits g));
      Alcotest.check_raises
        (Printf.sprintf "Sparse.build h=%d bits=%d" h bits)
        (Invalid_argument ("Sparse.build: " ^ message))
        (fun () -> ignore (Overlay.Sparse.build ~bits ~nodes:4 g)))
    [
      (3, 8, "record:h=3: h must be a power of two");
      (2048, 22, "record:h=2048: h must be in 2..1024");
      (4, 9, "record:h=4: h=4 needs digit width 2 to divide bits=9");
      (1024, 12, "record:h=1024: h=1024 needs digit width 10 to divide bits=12");
    ];
  (* The analytical commands apply the rule alone, at any bits. *)
  Alcotest.(check bool) "check_params ignores the size cap" true
    (Rcm.Geometry.check_params ~bits:200 (Rcm.Geometry.Record { h = 4 }) = Ok ())

(* Every truncation and single-byte substitution of a slug or an alias
   spelling parses to Ok or Error without raising, and what it accepts
   round-trips through its slug. *)
let mutation_gen =
  let open QCheck2.Gen in
  let bases =
    List.map Rcm.Geometry.slug (Rcm.Geometry.all @ records)
    @ [
        "rechord:h=16"; "record"; "plaxton"; "can"; "kademlia"; "chord"; "small-world";
        "smallworld";
      ]
  in
  let* base = oneofl bases in
  let len = String.length base in
  oneof
    [
      map (fun n -> String.sub base 0 n) (int_range 0 len);
      map2
        (fun i c -> String.mapi (fun j b -> if j = i then Char.chr c else b) base)
        (int_range 0 (len - 1))
        (int_range 0 255);
    ]

let prop_slug_mutations =
  qcheck ~count:2000 "slug mutations never raise" mutation_gen (fun s ->
      match Rcm.Geometry.of_string s with
      | Error _ -> true
      | Ok g -> (
          match Rcm.Geometry.of_string (Rcm.Geometry.slug g) with
          | Ok g' -> Rcm.Geometry.equal g g'
          | Error _ -> false))

(* --- record table invariants --------------------------------------------- *)

let test_record_table_invariants () =
  let bits = 8 and h = 4 in
  let group = 2 in
  let b = h and digits = bits / group in
  let table =
    Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:5) ~bits
      (Rcm.Geometry.Record { h })
  in
  let n = Overlay.Table.node_count table in
  Alcotest.(check int) "node count" (1 lsl bits) n;
  for v = 0 to n - 1 do
    let row = Overlay.Table.neighbors table v in
    Alcotest.(check int)
      (Printf.sprintf "degree of %d" v)
      (digits * (b - 1))
      (Array.length row);
    Array.iteri
      (fun i u ->
        let level = (i / (b - 1)) + 1 in
        let rank = (i mod (b - 1)) + 1 in
        (* Digits above the slot's level are preserved... *)
        for l = 1 to level - 1 do
          Alcotest.(check int)
            (Printf.sprintf "node %d slot %d: digit %d preserved" v i l)
            (Idspace.Digit.get ~bits ~group v l)
            (Idspace.Digit.get ~bits ~group u l)
        done;
        (* ...and the level digit is own + rank (mod b). *)
        Alcotest.(check int)
          (Printf.sprintf "node %d slot %d: stepped digit" v i)
          ((Idspace.Digit.get ~bits ~group v level + rank) mod b)
          (Idspace.Digit.get ~bits ~group u level))
      row
  done

let test_record_router_progress () =
  (* With nobody failed, greedy digit correction fixes the leading
     differing digit every hop: the leading level strictly deepens, so
     every pair is delivered within [digits] hops. *)
  let bits = 8 and h = 4 in
  let group = 2 in
  let digits = bits / group in
  let table =
    Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:9) ~bits
      (Rcm.Geometry.Record { h })
  in
  let n = Overlay.Table.node_count table in
  let alive = Overlay.Failure.none n in
  let rng = Prng.Splitmix.create ~seed:31 in
  for _ = 1 to 500 do
    let src = Prng.Splitmix.int rng n in
    let dst = Prng.Splitmix.int rng n in
    if src <> dst then begin
      let last_level = ref 0 in
      let prev = ref src in
      let on_hop next =
        (* Each hop must strictly deepen the most significant differing
           digit against the destination — the progress measure. *)
        (match Idspace.Digit.highest_differing ~bits ~group !prev dst with
        | Some l ->
            if l <= !last_level then
              Alcotest.failf "%d -> %d: level %d did not deepen past %d" src dst l
                !last_level;
            last_level := l
        | None -> Alcotest.failf "%d -> %d: hop from the destination" src dst);
        prev := next
      in
      match Routing.Router.route ~on_hop table ~rng ~alive ~src ~dst with
      | Routing.Outcome.Delivered { hops } ->
          if hops > digits then
            Alcotest.failf "%d -> %d: %d hops exceeds %d digits" src dst hops digits
      | outcome ->
          Alcotest.failf "%d -> %d: not delivered at q=0: %s" src dst
            (Fmt.str "%a" Routing.Outcome.pp outcome)
    end
  done

(* --- h = 2 degenerates to the built-in xor geometry ----------------------- *)

let test_record_h2_is_xor () =
  let bits = 7 in
  let rng_r = Prng.Splitmix.create ~seed:64 in
  let rng_x = Prng.Splitmix.create ~seed:64 in
  let record = Overlay.Table.build ~rng:rng_r ~bits (Rcm.Geometry.Record { h = 2 }) in
  let xor = Overlay.Table.build ~rng:rng_x ~bits Rcm.Geometry.Xor in
  Alcotest.(check int64) "same draws consumed" (Prng.Splitmix.state rng_x)
    (Prng.Splitmix.state rng_r);
  for v = 0 to Overlay.Table.node_count xor - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d identical" v)
      (Overlay.Table.neighbors xor v)
      (Overlay.Table.neighbors record v)
  done;
  (* End to end: the estimator is bit-identical, so every simulated
     figure involving xor could equivalently name record:h=2. *)
  let run geometry =
    Sim.Estimate.run
      (Sim.Estimate.config ~trials:2 ~pairs_per_trial:300 ~seed:17 ~bits ~q:0.2 geometry)
  in
  let a = run (Rcm.Geometry.Record { h = 2 }) in
  let b = run Rcm.Geometry.Xor in
  Alcotest.(check int) "delivered" b.Sim.Estimate.delivered a.Sim.Estimate.delivered;
  Alcotest.(check int) "attempted" b.Sim.Estimate.attempted a.Sim.Estimate.attempted;
  check_close ~msg:"hop mean"
    (Stats.Summary.mean b.Sim.Estimate.hop_summary)
    (Stats.Summary.mean a.Sim.Estimate.hop_summary);
  (* And the closed forms agree: the record spec at group 1 is the xor
     spec. *)
  List.iter
    (fun q ->
      check_close
        ~msg:(Printf.sprintf "routability q=%g" q)
        (Rcm.Model.routability Rcm.Geometry.Xor ~d:12 ~q)
        (Rcm.Model.routability (Rcm.Geometry.Record { h = 2 }) ~d:12 ~q))
    [ 0.05; 0.2; 0.4 ]

(* --- E13: the measured hop pmf matches the chain prediction --------------- *)

let test_record_hop_distribution_tolerance () =
  let cfg =
    { Experiments.Hop_distribution.default_config with bits = 8; pairs = 2_000 }
  in
  let g = Rcm.Geometry.Record { h = 4 } in
  let series = Experiments.Hop_distribution.run cfg g in
  let predicted = Helpers.column series "chain" and simulated = Helpers.column series "sim" in
  check_close ~msg:"prediction is a pmf" 1.0 (Numerics.Kahan.sum_array predicted);
  let tv = Helpers.total_variation predicted simulated in
  if not (Float.is_finite tv) || tv < 0.0 || tv > 0.1 then
    Alcotest.failf "record:h=4 hop pmf TV %.4f outside tolerance 0.1" tv

(* --- what every geometry supports ----------------------------------------- *)

let test_descriptor_conformance () =
  (* 8 bits: every member of all fits it. *)
  let bits = 8 in
  List.iter
    (fun geometry ->
      let slug = Rcm.Geometry.slug geometry in
      check_in_unit ~msg:(slug ^ ": routability") (Rcm.Model.routability geometry ~d:bits ~q:0.2);
      let hops = Experiments.Latency.predicted_hops geometry ~d:bits ~q:0.1 in
      if not (Float.is_finite hops) || hops <= 0.0 then
        Alcotest.failf "%s: chain-predicted hops %g not positive" slug hops;
      ignore (Sim.Session_churn.config ~bits geometry))
    Rcm.Geometry.all;
  List.iter
    (fun geometry ->
      let rng = Prng.Splitmix.create ~seed:23 in
      let overlay = Overlay.Sparse.build ~rng ~bits ~nodes:48 geometry in
      let alive = Overlay.Failure.none 48 in
      match Routing.Sparse_router.route overlay ~alive ~src:0 ~dst:17 with
      | Routing.Outcome.Delivered _ | Routing.Outcome.Dropped _ -> ())
    Helpers.sparse_geometries

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "one member of all per constructor" `Quick
      test_one_member_per_constructor;
    Alcotest.test_case "slug roundtrip" `Quick test_slug_roundtrip;
    Alcotest.test_case "record accepted spellings" `Quick test_record_spellings;
    Alcotest.test_case "record parse errors" `Quick test_record_parse_errors;
    Alcotest.test_case "record size rule" `Quick test_record_size_rule;
    prop_slug_mutations;
    Alcotest.test_case "record table invariants" `Quick test_record_table_invariants;
    Alcotest.test_case "record router progress" `Quick test_record_router_progress;
    Alcotest.test_case "record:h=2 = xor draw-for-draw" `Quick test_record_h2_is_xor;
    Alcotest.test_case "record hop pmf within tolerance" `Slow
      test_record_hop_distribution_tolerance;
    Alcotest.test_case "descriptor capabilities vs hooks" `Quick
      test_descriptor_conformance;
  ]
