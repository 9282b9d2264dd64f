open Helpers

(* The geometry descriptor registry and the ReCord plugin: parsing,
   slug identity, descriptor-vs-hook conformance, the record table and
   router invariants, the h = 2 draw-for-draw degeneration to the
   built-in xor geometry, and the E13 hop-pmf tolerance. *)

let builtin_names = [ "tree"; "hypercube"; "xor"; "ring"; "symphony" ]

let find_descriptor name = List.find_opt (fun d -> Geom.name d = name) (Geom.all ())

let test_registry_basics () =
  let names = Geom.names () in
  (* Builtins first, in registration order, then plugins. *)
  Alcotest.(check (list string))
    "builtins lead the registry" builtin_names
    (List.filteri (fun i _ -> i < 5) names);
  Alcotest.(check bool) "record registered" true (List.mem "record" names);
  (match find_descriptor "record" with
  | None -> Alcotest.fail "record descriptor missing"
  | Some d ->
      Alcotest.(check bool) "record is a plugin" false d.Geom.builtin;
      Alcotest.(check string) "record example" "record:h=4" d.Geom.example);
  List.iter
    (fun name ->
      match find_descriptor name with
      | None -> Alcotest.failf "%s descriptor missing" name
      | Some d ->
          Alcotest.(check bool) (name ^ " is builtin") true d.Geom.builtin;
          (* slug = name for builtins: the checkpoint-key/byte-identity
             contract that keeps pre-plugin artefacts replayable. *)
          Alcotest.(check string) (name ^ " slug is bare name") name
            (Rcm.Geometry.slug d.Geom.default))
    builtin_names

let test_slug_roundtrip () =
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          match Rcm.Geometry.of_string s with
          | Error e -> Alcotest.failf "%s: parse failed: %s" s e
          | Ok g ->
              let slug = Rcm.Geometry.slug g in
              (match Rcm.Geometry.of_string slug with
              | Error e -> Alcotest.failf "%s: slug %s reparse failed: %s" s slug e
              | Ok g' ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: roundtrip through %s" s slug)
                    true (g = g')))
        [ Rcm.Geometry.slug d.Geom.default; d.Geom.example ])
    (Geom.all ())

let test_record_parse_errors () =
  List.iter
    (fun s ->
      match Rcm.Geometry.of_string s with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" s
      | Error _ -> ())
    [ "record:h=3"; "record:h=0"; "record:h=2048"; "record:k=2"; "record:h=two" ];
  (match Rcm.Geometry.of_string "record" with
  | Ok g ->
      Alcotest.(check string) "bare record defaults to h=2" "record:h=2"
        (Rcm.Geometry.slug g)
  | Error e -> Alcotest.failf "bare record: %s" e);
  match Rcm.Geometry.of_string "rechord:h=4" with
  | Ok g -> Alcotest.(check string) "alias" "record:h=4" (Rcm.Geometry.slug g)
  | Error e -> Alcotest.failf "rechord alias: %s" e

(* --- record table invariants --------------------------------------------- *)

let test_record_table_invariants () =
  let bits = 8 and h = 4 in
  let group = 2 in
  let b = h and digits = bits / group in
  let table =
    Overlay.Table.build ~rng:(Prng.Splitmix.create ~seed:5) ~bits
      (Helpers.record ~h)
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
      (Helpers.record ~h)
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
  let record = Overlay.Table.build ~rng:rng_r ~bits (Helpers.record ~h:2) in
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
  let a = run (Helpers.record ~h:2) in
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
        (Rcm.Model.routability (Helpers.record ~h:2) ~d:12 ~q))
    [ 0.05; 0.2; 0.4 ]

(* --- E13: the measured hop pmf matches the chain prediction --------------- *)

let test_record_hop_distribution_tolerance () =
  let cfg =
    { Experiments.Hop_distribution.default_config with bits = 8; pairs = 2_000 }
  in
  let g = Helpers.record ~h:4 in
  let series = Experiments.Hop_distribution.run cfg g in
  let predicted = Helpers.column series "chain" and simulated = Helpers.column series "sim" in
  check_close ~msg:"prediction is a pmf" 1.0 (Numerics.Kahan.sum_array predicted);
  let tv = Helpers.total_variation predicted simulated in
  if not (Float.is_finite tv) || tv < 0.0 || tv > 0.1 then
    Alcotest.failf "record:h=4 hop pmf TV %.4f outside tolerance 0.1" tv

(* --- descriptor capabilities match the registered hooks ------------------- *)

let test_descriptor_conformance () =
  List.iter
    (fun d ->
      let geometry = d.Geom.default in
      let slug = Rcm.Geometry.slug geometry in
      (* bits chosen to satisfy every registered family's divisibility
         constraints at its default parameters. *)
      let bits = 8 in
      if d.Geom.analysis then begin
        let r = Rcm.Model.routability geometry ~d:bits ~q:0.2 in
        check_in_unit ~msg:(slug ^ ": routability") r
      end;
      if d.Geom.chain then begin
        let hops = Experiments.Latency.predicted_hops geometry ~d:bits ~q:0.1 in
        if not (Float.is_finite hops) || hops <= 0.0 then
          Alcotest.failf "%s: chain-predicted hops %g not positive" slug hops
      end;
      (let accepted =
         try
           ignore (Sim.Session_churn.config ~bits geometry);
           true
         with Invalid_argument _ -> false
       in
       Alcotest.(check bool) (slug ^ ": session-churn capability") d.Geom.session_churn
         accepted);
      if d.Geom.sparse then begin
        let rng = Prng.Splitmix.create ~seed:23 in
        let overlay = Overlay.Sparse.build ~rng ~bits ~nodes:48 geometry in
        let alive = Overlay.Failure.none 48 in
        match Routing.Sparse_router.route overlay ~alive ~src:0 ~dst:17 with
        | Routing.Outcome.Delivered _ | Routing.Outcome.Dropped _ -> ()
      end)
    (Geom.all ())

let test_registration_guards () =
  (match find_descriptor "record" with
  | Some d ->
      Alcotest.(check bool) "duplicate descriptor rejected" true
        (try
           Geom.register d;
           false
         with Invalid_argument _ -> true)
  | None -> Alcotest.fail "record descriptor missing");
  match Rcm.Geometry.custom ~family:"no-such-family" [] with
  | Ok _ -> Alcotest.fail "unknown family accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "slug roundtrip" `Quick test_slug_roundtrip;
    Alcotest.test_case "record parse errors" `Quick test_record_parse_errors;
    Alcotest.test_case "record table invariants" `Quick test_record_table_invariants;
    Alcotest.test_case "record router progress" `Quick test_record_router_progress;
    Alcotest.test_case "record:h=2 = xor draw-for-draw" `Quick test_record_h2_is_xor;
    Alcotest.test_case "record hop pmf within tolerance" `Slow
      test_record_hop_distribution_tolerance;
    Alcotest.test_case "descriptor capabilities vs hooks" `Quick
      test_descriptor_conformance;
    Alcotest.test_case "registration guards" `Quick test_registration_guards;
  ]
