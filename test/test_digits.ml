open Helpers

(* --- Idspace.Digit ----------------------------------------------------------- *)

let bits = 8

let test_digit_get_set () =
  (* 0xA5 = 1010_0101; with group = 4 the digits are 0xA and 0x5. *)
  Alcotest.(check int) "digit 1" 0xA (Idspace.Digit.get ~bits ~group:4 0xA5 1);
  Alcotest.(check int) "digit 2" 0x5 (Idspace.Digit.get ~bits ~group:4 0xA5 2);
  Alcotest.(check int) "set digit 1" 0x35 (Idspace.Digit.set ~bits ~group:4 0xA5 1 0x3);
  Alcotest.(check int) "set digit 2" 0xAC (Idspace.Digit.set ~bits ~group:4 0xA5 2 0xC)

let test_digit_group1_is_bits () =
  for id = 0 to 255 do
    for level = 1 to 8 do
      Alcotest.(check bool) "bit view" (Idspace.Id.get_bit ~bits id level)
        (Idspace.Digit.get ~bits ~group:1 id level = 1)
    done
  done

let test_digit_guards () =
  Alcotest.(check bool) "group must divide" true
    (try
       ignore (Idspace.Digit.count ~bits ~group:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "value outside base" true
    (try
       ignore (Idspace.Digit.set ~bits ~group:4 0 1 16);
       false
     with Invalid_argument _ -> true)

let test_digit_distance () =
  Alcotest.(check int) "same" 0 (Idspace.Digit.distance ~bits ~group:4 0xA5 0xA5);
  Alcotest.(check int) "one digit" 1 (Idspace.Digit.distance ~bits ~group:4 0xA5 0xA7);
  Alcotest.(check int) "two digits" 2 (Idspace.Digit.distance ~bits ~group:4 0xA5 0x57);
  Alcotest.(check (option int)) "leading" (Some 1)
    (Idspace.Digit.highest_differing ~bits ~group:4 0xA5 0x57);
  Alcotest.(check int) "prefix" 1 (Idspace.Digit.common_prefix ~bits ~group:4 0xA5 0xA7)

let digit_set_get_roundtrip =
  qcheck "set/get digit roundtrip"
    QCheck2.Gen.(triple (int_range 0 255) (int_range 1 2) (int_range 0 15))
    (fun (id, level, value) ->
      Idspace.Digit.get ~bits ~group:4 (Idspace.Digit.set ~bits ~group:4 id level value) level
      = value)

let digit_distance_vs_bit_distance =
  qcheck "digit distance <= hamming distance <= group * digit distance"
    QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) ->
      let dd = Idspace.Digit.distance ~bits ~group:4 a b in
      let hd = Idspace.Id.hamming_distance a b in
      dd <= hd && hd <= 4 * dd)

(* --- Rcm.Digits ----------------------------------------------------------------- *)

let test_digits_population_sums () =
  (* sum_h C(D,h)(b-1)^h = 2^d - 1 for every base. *)
  List.iter
    (fun group ->
      check_loose
        ~msg:(Printf.sprintf "group %d" group)
        (Float.pow 2.0 12.0 -. 1.0)
        (total_population (Rcm.Digits.xor_spec ~group) ~d:12))
    [ 1; 2; 3; 4; 6 ]

let test_digits_reduce_to_binary () =
  List.iter
    (fun q ->
      check_close ~msg:"tree" (Rcm.Tree.routability ~d:12 ~q)
        (Rcm.Digits.tree_routability ~d:12 ~q ~group:1);
      check_close ~msg:"xor"
        (Rcm.Model.routability Rcm.Geometry.Xor ~d:12 ~q)
        (Rcm.Digits.xor_routability ~d:12 ~q ~group:1))
    [ 0.1; 0.3; 0.6 ]

let test_digits_group_must_divide () =
  Alcotest.(check bool) "guard" true
    (try
       ignore (Rcm.Digits.tree_routability ~d:10 ~q:0.1 ~group:3);
       false
     with Invalid_argument _ -> true)


let base_helps_tree =
  qcheck "wider digits never hurt the tree"
    QCheck2.Gen.(pair small_prob_gen (int_range 1 2))
    (fun (q, group) ->
      Rcm.Digits.tree_routability ~d:12 ~q ~group:(group * 2)
      >= Rcm.Digits.tree_routability ~d:12 ~q ~group -. 1e-9)

(* --- Digit tables and routing ------------------------------------------------- *)

let table_bits = 8

let build ?(seed = 61) ~group style =
  Overlay.Digit_table.build ~rng:(rng_of_seed seed) ~bits:table_bits ~group style

let test_table_shape () =
  let t = build ~group:2 Overlay.Digit_table.Preserve_suffix in
  Alcotest.(check int) "levels" 4 (Overlay.Digit_table.levels t);
  Alcotest.(check int) "group" 2 (Overlay.Digit_table.group t)

let test_table_contacts_preserve () =
  let group = 2 in
  let t = build ~group Overlay.Digit_table.Preserve_suffix in
  for v = 0 to 255 do
    for level = 1 to Overlay.Digit_table.levels t do
      let own = Idspace.Digit.get ~bits:table_bits ~group v level in
      for digit = 0 to 3 do
        if digit <> own then begin
          let c = Overlay.Digit_table.neighbor t v ~level ~digit in
          Alcotest.(check int) "exactly one digit changed"
            (Idspace.Digit.set ~bits:table_bits ~group v level digit)
            c
        end
      done
    done
  done

let test_table_contacts_randomized () =
  let group = 2 in
  let t = build ~group Overlay.Digit_table.Randomize_suffix in
  for v = 0 to 255 do
    for level = 1 to Overlay.Digit_table.levels t do
      let own = Idspace.Digit.get ~bits:table_bits ~group v level in
      for digit = 0 to 3 do
        if digit <> own then begin
          let c = Overlay.Digit_table.neighbor t v ~level ~digit in
          Alcotest.(check bool) "prefix preserved" true
            (Idspace.Digit.common_prefix ~bits:table_bits ~group v c >= level - 1);
          Alcotest.(check int) "target digit set" digit
            (Idspace.Digit.get ~bits:table_bits ~group c level)
        end
      done
    done
  done

let all_alive = Overlay.Failure.none 256

let test_digit_routing_q0 () =
  List.iter
    (fun (style, mode) ->
      let t = build ~group:2 style in
      let drops = ref 0 in
      for src = 0 to 255 do
        let dst = (src + 131) land 255 in
        if dst <> src then
          if
            not
              (Helpers.delivered
                 (Routing.Digit_router.route ~mode t ~alive:all_alive ~src ~dst))
          then incr drops
      done;
      Alcotest.(check int) "no drops" 0 !drops)
    [ (Overlay.Digit_table.Preserve_suffix, `Tree); (Overlay.Digit_table.Randomize_suffix, `Xor) ]

let test_digit_tree_hops_equal_digit_distance () =
  let group = 2 in
  let t = build ~group Overlay.Digit_table.Preserve_suffix in
  for src = 0 to 63 do
    let dst = (src * 29 + 17) land 255 in
    if dst <> src then
      match Routing.Digit_router.route ~mode:`Tree t ~alive:all_alive ~src ~dst with
      | Routing.Outcome.Delivered { hops } ->
          Alcotest.(check int) "hops = digit distance"
            (Idspace.Digit.distance ~bits:table_bits ~group src dst)
            hops
      | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped at q=0"
  done

let test_a7_simulation_tracks_analysis () =
  let cfg =
    { Experiments.Base_sweep.default_config with
      bits = 10; groups = [ 1; 2 ]; qs = [ 0.2 ]; trials = 4; pairs = 3_000 }
  in
  let series = Experiments.Base_sweep.tree_series cfg in
  List.iter
    (fun group ->
      let label = Printf.sprintf "b=%d(sim)" (1 lsl group) in
      let sim = Option.get (Helpers.value_at series ~label ~x:0.2) in
      let ana = Rcm.Digits.tree_routability ~d:10 ~q:0.2 ~group in
      if Float.abs (sim -. ana) > 0.03 then
        Alcotest.failf "group %d: sim %.4f vs ana %.4f" group sim ana)
    cfg.Experiments.Base_sweep.groups

let test_a7_monotone () =
  (* Shorter routes help: analytical tree routability never decreases
     with the digit width. *)
  let cfg = { Experiments.Base_sweep.default_config with bits = 12 } in
  let groups = cfg.Experiments.Base_sweep.groups in
  List.iteri
    (fun i large ->
      if i > 0 then
        let small = List.nth groups (i - 1) in
        List.iter
          (fun q ->
            let r group = Rcm.Digits.tree_routability ~d:12 ~q ~group in
            if r large < r small -. 1e-9 then
              Alcotest.failf "q=%g: group %d below group %d" q large small)
          cfg.Experiments.Base_sweep.qs)
    groups

let suite =
  [
    ("digit get/set", `Quick, test_digit_get_set);
    ("digit group=1 is bits", `Quick, test_digit_group1_is_bits);
    ("digit guards", `Quick, test_digit_guards);
    ("digit distance", `Quick, test_digit_distance);
    digit_set_get_roundtrip;
    digit_distance_vs_bit_distance;
    ("population sums to N-1 for all bases", `Quick, test_digits_population_sums);
    ("reduces to binary at group=1", `Quick, test_digits_reduce_to_binary);
    ("group must divide d", `Quick, test_digits_group_must_divide);
    base_helps_tree;
    ("digit table shape", `Quick, test_table_shape);
    ("preserve-suffix contacts", `Quick, test_table_contacts_preserve);
    ("randomized contacts", `Quick, test_table_contacts_randomized);
    ("digit routing at q=0", `Quick, test_digit_routing_q0);
    ("digit tree hops = digit distance", `Quick, test_digit_tree_hops_equal_digit_distance);
    ("A7 simulation tracks analysis", `Slow, test_a7_simulation_tracks_analysis);
    ("A7 monotone in base", `Quick, test_a7_monotone);
  ]
