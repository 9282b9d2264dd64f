open Helpers

let same uf a b = Graph.Union_find.find uf a = Graph.Union_find.find uf b

(* Component sizes, largest first, read through [find]. *)
let component_sizes uf n =
  List.init n (Graph.Union_find.find uf)
  |> List.sort compare
  |> List.fold_left
       (fun acc r ->
         match acc with (r', s) :: rest when r' = r -> (r, s + 1) :: rest | _ -> (r, 1) :: acc)
       []
  |> List.map snd
  |> List.sort (fun a b -> compare b a)

let test_union_find_basic () =
  let uf = Graph.Union_find.create 5 in
  Alcotest.(check int) "initial components" 5 (List.length (component_sizes uf 5));
  Alcotest.(check bool) "union new" true (Graph.Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Graph.Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (same uf 0 1);
  Alcotest.(check bool) "different" false (same uf 0 2);
  Alcotest.(check int) "components after union" 4 (List.length (component_sizes uf 5))

let test_union_find_transitive () =
  let uf = Graph.Union_find.create 6 in
  ignore (Graph.Union_find.union uf 0 1);
  ignore (Graph.Union_find.union uf 1 2);
  ignore (Graph.Union_find.union uf 3 4);
  Alcotest.(check bool) "0 ~ 2" true (same uf 0 2);
  Alcotest.(check bool) "0 !~ 3" false (same uf 0 3);
  Alcotest.(check (list int)) "sizes" [ 3; 2; 1 ] (component_sizes uf 6)

let union_find_counts_consistent =
  qcheck "component count = number of distinct roots"
    QCheck2.Gen.(list_size (int_range 0 60) (pair (int_range 0 19) (int_range 0 19)))
    (fun edges ->
      let uf = Graph.Union_find.create 20 in
      let merges =
        List.length (List.filter (fun (a, b) -> Graph.Union_find.union uf a b) edges)
      in
      let roots = List.init 20 (Graph.Union_find.find uf) |> List.sort_uniq compare in
      List.length roots = 20 - merges)

(* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
let diamond = [| [| 1; 2 |]; [| 3 |]; [| 3 |]; [||] |]

let analyze ?alive adjacency =
  Graph.Components.analyze_iter ?alive ~nodes:(Array.length adjacency) (fun v f ->
      Array.iter f adjacency.(v))

let test_components_report () =
  let r = analyze diamond in
  Alcotest.(check int) "alive" 4 r.Graph.Components.alive_nodes;
  Alcotest.(check int) "one component" 1 r.Graph.Components.component_count;
  check_close 1.0 r.Graph.Components.pair_connectivity;
  check_close 1.0 r.Graph.Components.giant_fraction

let test_components_split () =
  (* Two disjoint directed pairs. *)
  let r = analyze [| [| 1 |]; [||]; [| 3 |]; [||] |] in
  Alcotest.(check int) "two components" 2 r.Graph.Components.component_count;
  (* Connected ordered pairs: (0,1),(1,0),(2,3),(3,2) of 12 possible. *)
  check_close (4.0 /. 12.0) r.Graph.Components.pair_connectivity

let test_components_with_failures () =
  let alive = [| true; false; true; true |] in
  let r = analyze ~alive diamond in
  Alcotest.(check int) "alive" 3 r.Graph.Components.alive_nodes;
  Alcotest.(check int) "one component (0-2-3)" 1 r.Graph.Components.component_count;
  check_close 1.0 r.Graph.Components.giant_fraction

(* One survivor forms no pair, so its pair connectivity is missing,
   while it is its own giant component; with none, both are missing —
   never a fabricated 0. *)
let test_components_below_two_alive () =
  let one = analyze ~alive:[| false; false; true; false |] diamond in
  Alcotest.(check int) "one alive" 1 one.Graph.Components.alive_nodes;
  Alcotest.(check bool) "one alive: connectivity nan" true
    (Float.is_nan one.Graph.Components.pair_connectivity);
  check_close 1.0 one.Graph.Components.giant_fraction;
  let none = analyze ~alive:(Array.make 4 false) diamond in
  Alcotest.(check int) "no component" 0 none.Graph.Components.component_count;
  Alcotest.(check bool) "none alive: connectivity nan" true
    (Float.is_nan none.Graph.Components.pair_connectivity);
  Alcotest.(check bool) "none alive: giant nan" true
    (Float.is_nan none.Graph.Components.giant_fraction)

let suite =
  [
    ("union-find basic", `Quick, test_union_find_basic);
    ("union-find transitive", `Quick, test_union_find_transitive);
    union_find_counts_consistent;
    ("components report", `Quick, test_components_report);
    ("components split", `Quick, test_components_split);
    ("components with failures", `Quick, test_components_with_failures);
    ("components below two alive nodes", `Quick, test_components_below_two_alive);
  ]
