open Helpers

(* --- Kahan ------------------------------------------------------------ *)

let test_kahan_empty () =
  Alcotest.(check (float 0.0)) "empty sum" 0.0 (Numerics.Kahan.sum_array [||])

let test_kahan_simple () =
  check_close 6.0 (Numerics.Kahan.sum_array [| 1.0; 2.0; 3.0 |])

let test_kahan_compensation () =
  (* 1 + 1e-16 added 10^5 times loses the small terms in naive order;
     compensated summation keeps them. *)
  let tiny = 1e-16 in
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc 1.0;
  for _ = 1 to 100_000 do
    Numerics.Kahan.add acc tiny
  done;
  check_close (1.0 +. (100_000.0 *. tiny)) (Numerics.Kahan.total acc)

let test_kahan_large_then_small () =
  (* Neumaier handles a term larger than the running total. *)
  check_close 2.0 (Numerics.Kahan.sum_array [| 1.0; 1e100; 1.0; -1e100 |])

let test_kahan_sum_fn () =
  check_close 55.0 (Numerics.Kahan.sum_fn ~lo:1 ~hi:10 float_of_int);
  Alcotest.(check (float 0.0)) "empty range" 0.0 (Numerics.Kahan.sum_fn ~lo:5 ~hi:4 float_of_int)

let kahan_matches_sorted_sum =
  qcheck "kahan matches high-precision reference"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range (-1e6) 1e6))
    (fun xs ->
      let reference =
        (* Sum smallest-magnitude first as a good reference. *)
        List.sort (fun a b -> compare (Float.abs a) (Float.abs b)) xs
        |> List.fold_left ( +. ) 0.0
      in
      approx_equal ~rtol:1e-9 ~atol:1e-6 reference (Numerics.Kahan.sum_array (Array.of_list xs)))

(* --- Special functions ------------------------------------------------ *)

let test_log_gamma_integers () =
  (* Gamma(n) = (n-1)! *)
  let factorial n = List.fold_left (fun acc i -> acc *. float_of_int i) 1.0 (List.init n succ) in
  List.iter
    (fun n ->
      check_close ~msg:(Printf.sprintf "lgamma %d" n)
        (log (factorial (n - 1)))
        (Numerics.Special.log_gamma (float_of_int n)))
    [ 1; 2; 3; 5; 10; 20; 100 ]

let test_log_gamma_half () =
  (* Gamma(1/2) = sqrt(pi). *)
  check_close (0.5 *. log Float.pi) (Numerics.Special.log_gamma 0.5)

let test_log_gamma_reflection () =
  (* Gamma(x) Gamma(1-x) = pi / sin(pi x) at x = 0.3. *)
  let x = 0.3 in
  let lhs = Numerics.Special.log_gamma x +. Numerics.Special.log_gamma (1.0 -. x) in
  check_close (log (Float.pi /. sin (Float.pi *. x))) lhs

let test_log_gamma_poles () =
  Alcotest.(check bool) "pole at 0" true (Numerics.Special.log_gamma 0.0 = infinity);
  Alcotest.(check bool) "pole at -3" true (Numerics.Special.log_gamma (-3.0) = infinity)

let test_log_factorial () =
  check_close 0.0 (Numerics.Special.log_factorial 0);
  check_close 0.0 (Numerics.Special.log_factorial 1);
  check_close (log 120.0) (Numerics.Special.log_factorial 5);
  (* Cached vs lgamma regime must agree across the cache boundary. *)
  check_close
    (Numerics.Special.log_gamma 258.0)
    (Numerics.Special.log_factorial 257)

let test_log_factorial_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Special.log_factorial: negative argument")
    (fun () -> ignore (Numerics.Special.log_factorial (-1)))

let test_log1mexp () =
  check_close (log 0.5) (Numerics.Special.log1mexp (-.log 2.0));
  check_close ~msg:"tiny x" (log 1e-9) (Numerics.Special.log1mexp (Float.log1p (-1e-9)));
  Alcotest.(check bool) "at 0" true (Numerics.Special.log1mexp 0.0 = neg_infinity)

let log1mexp_identity =
  qcheck "log1mexp inverts log(1-p)" prob_gen (fun p ->
      let p = Float.min p 0.999 in
      approx_equal ~rtol:1e-9 ~atol:1e-12 (log p)
        (Numerics.Special.log1mexp (Float.log1p (-.p))))

(* --- Logspace ---------------------------------------------------------- *)

let of_float x = Numerics.Logspace.of_log (log x)

(* The log-space sum of an array of reals, through [sum_fn]. *)
let logspace_sum xs =
  Numerics.Logspace.sum_fn ~lo:0 ~hi:(Array.length xs - 1) (fun i -> of_float xs.(i))

let test_logspace_roundtrip () =
  check_close 42.0 Numerics.Logspace.(to_float (of_float 42.0));
  Alcotest.(check (float 0.0)) "zero" 0.0 Numerics.Logspace.(to_float (of_float 0.0))

let test_logspace_add () =
  check_close 5.0 Numerics.Logspace.(to_float (logspace_sum [| 2.0; 3.0 |]));
  check_close 3.0 Numerics.Logspace.(to_float (logspace_sum [| 0.0; 3.0 |]))

let test_logspace_add_huge () =
  (* 1e300 + 1e300 = 2e300 without overflow in the log domain. *)
  let x = Numerics.Logspace.of_log (300.0 *. log 10.0) in
  check_close 2.0
    Numerics.Logspace.(to_float (div (sum_fn ~lo:1 ~hi:2 (fun _ -> x)) x))

let test_logspace_sub () =
  check_close 1.0 Numerics.Logspace.(to_float (sub (of_float 3.0) (of_float 2.0)));
  Alcotest.check_raises "negative result" (Invalid_argument "Logspace.sub: negative result")
    (fun () -> ignore Numerics.Logspace.(sub (of_float 2.0) (of_float 3.0)))

let test_logspace_sum () =
  check_close 10.0 Numerics.Logspace.(to_float (logspace_sum [| 1.0; 2.0; 3.0; 4.0 |]));
  Alcotest.(check (float 0.0)) "empty" 0.0 Numerics.Logspace.(to_float (logspace_sum [||]))

let test_logspace_sum_fn () =
  check_close 15.0
    Numerics.Logspace.(
      to_float (sum_fn ~lo:1 ~hi:5 (fun i -> of_float (float_of_int i))))

let logspace_add_commutes =
  qcheck "logspace add commutes"
    QCheck2.Gen.(pair (float_range 0.0 1e5) (float_range 0.0 1e5))
    (fun (a, b) ->
      Numerics.Logspace.(compare (logspace_sum [| a; b |]) (logspace_sum [| b; a |])) = 0)

(* --- Binomial ----------------------------------------------------------- *)

let test_choose_small () =
  Alcotest.(check int) "C(5,2)" 10 (Numerics.Binomial.choose_exn 5 2);
  Alcotest.(check int) "C(10,0)" 1 (Numerics.Binomial.choose_exn 10 0);
  Alcotest.(check int) "C(10,10)" 1 (Numerics.Binomial.choose_exn 10 10);
  Alcotest.(check int) "C(3,7)" 0 (Numerics.Binomial.choose_exn 3 7)

let test_choose_float_matches_exact () =
  for n = 0 to 30 do
    for k = 0 to n do
      check_close
        ~msg:(Printf.sprintf "C(%d,%d)" n k)
        (float_of_int (Numerics.Binomial.choose_exn n k))
        (Numerics.Binomial.choose_float n k)
    done
  done

let test_log_choose_large () =
  (* C(100,50) ~ 1.0089e29: log_choose must agree with the
     multiplicative evaluation to ~1e-12 relative. *)
  check_loose
    (log (Numerics.Binomial.choose_float 100 50))
    (Numerics.Binomial.log_choose 100 50)

let test_log_choose_out_of_range () =
  Alcotest.(check bool) "k > n" true (Numerics.Binomial.log_choose 5 6 = neg_infinity)

let pascal_row n = Array.init (n + 1) (Numerics.Binomial.choose_float n)

let test_pascal_row () =
  Alcotest.(check (array (float 1e-9))) "row 5" [| 1.; 5.; 10.; 10.; 5.; 1. |] (pascal_row 5)

let test_pascal_row_sums () =
  (* Row n sums to 2^n. *)
  List.iter
    (fun n ->
      check_close ~msg:(Printf.sprintf "sum row %d" n)
        (Float.pow 2.0 (float_of_int n))
        (Numerics.Kahan.sum_array (pascal_row n)))
    [ 1; 8; 16; 40 ]

let binomial_symmetry =
  qcheck "C(n,k) = C(n,n-k)"
    QCheck2.Gen.(pair (int_range 0 200) (int_range 0 200))
    (fun (n, k) ->
      let k = if n = 0 then 0 else k mod (n + 1) in
      approx_equal
        (Numerics.Binomial.log_choose n k)
        (Numerics.Binomial.log_choose n (n - k)))

let binomial_pascal_identity =
  qcheck "C(n,k) = C(n-1,k-1) + C(n-1,k)"
    QCheck2.Gen.(pair (int_range 1 60) (int_range 1 60))
    (fun (n, k) ->
      let k = 1 + (k mod n) in
      approx_equal ~rtol:1e-12
        (Numerics.Binomial.choose_float n k)
        (Numerics.Binomial.choose_float (n - 1) (k - 1)
        +. Numerics.Binomial.choose_float (n - 1) k))

(* --- Prob ---------------------------------------------------------------- *)

let test_prob_pow () =
  check_close 0.25 (Numerics.Prob.pow 0.5 2);
  check_close 1.0 (Numerics.Prob.pow 0.7 0);
  check_close 0.0 (Numerics.Prob.pow 0.0 3);
  check_close 1.0 (Numerics.Prob.pow 1.0 100)

let test_prob_pow_invalid () =
  Alcotest.check_raises "negative exponent" (Invalid_argument "Prob.pow: negative exponent")
    (fun () -> ignore (Numerics.Prob.pow 0.5 (-1)))

let test_geometric_sum_exact () =
  (* sum_{k=0..3} 0.5^k = 1.875 *)
  check_close 1.875 (Numerics.Prob.geometric_sum 0.5 4.0);
  check_close 0.0 (Numerics.Prob.geometric_sum 0.5 0.0);
  check_close 1.0 (Numerics.Prob.geometric_sum 0.5 1.0)

let test_geometric_sum_near_one () =
  (* x = 1 - 1e-12, n = 1000: naive closed form cancels; the answer is
     ~n to within n^2 eps / 2. *)
  check_loose 1000.0 (Numerics.Prob.geometric_sum (1.0 -. 1e-12) 1000.0)

let test_geometric_sum_huge_n () =
  (* With |x| < 1 and astronomically large n the sum is 1/(1-x). *)
  check_close (1.0 /. 0.7) (Numerics.Prob.geometric_sum 0.3 (Float.pow 2.0 99.0))

let test_at_least_one_of () =
  check_close 0.75 (Numerics.Prob.at_least_one_of ~q:0.5 ~count:2);
  check_close 0.0 (Numerics.Prob.at_least_one_of ~q:0.5 ~count:0);
  check_close 1.0 (Numerics.Prob.at_least_one_of ~q:0.0 ~count:3);
  check_close 0.0 (Numerics.Prob.at_least_one_of ~q:1.0 ~count:3)

let geometric_sum_matches_naive =
  qcheck "geometric sum matches naive evaluation"
    QCheck2.Gen.(pair (float_range 0.0 0.99) (int_range 1 200))
    (fun (x, n) ->
      let naive = ref 0.0 in
      for k = n - 1 downto 0 do
        naive := !naive +. (x ** float_of_int k)
      done;
      approx_equal ~rtol:1e-9 !naive
        (Numerics.Prob.geometric_sum x (float_of_int n)))

let at_least_one_bounds =
  qcheck "1 - q^count is a probability, monotone in count"
    QCheck2.Gen.(pair prob_gen (int_range 1 60))
    (fun (q, count) ->
      let v = Numerics.Prob.at_least_one_of ~q ~count in
      let v' = Numerics.Prob.at_least_one_of ~q ~count:(count + 1) in
      Numerics.Prob.is_valid v && v' >= v)

(* --- Series -------------------------------------------------------------- *)

let verdict_name = function
  | Numerics.Series.Convergent _ -> "convergent"
  | Divergent _ -> "divergent"
  | Inconclusive _ -> "inconclusive"

let test_series_geometric_convergent () =
  match Numerics.Series.classify (fun m -> 0.5 ** float_of_int m) with
  | Numerics.Series.Convergent { partial_sum; tail_bound; _ } ->
      Alcotest.(check bool) "sum ~ 1" true (Float.abs (partial_sum -. 1.0) <= tail_bound +. 1e-9)
  | v -> Alcotest.failf "expected convergent, got %s" (verdict_name v)

let test_series_constant_divergent () =
  match Numerics.Series.classify (fun _ -> 0.1) with
  | Numerics.Series.Divergent _ -> ()
  | v -> Alcotest.failf "expected divergent, got %s" (verdict_name v)

let test_series_m_qm_convergent () =
  (* sum m q^m = q / (1-q)^2 — the XOR scalability series shape. *)
  let q = 0.4 in
  match Numerics.Series.classify (fun m -> float_of_int m *. (q ** float_of_int m)) with
  | Numerics.Series.Convergent { partial_sum; _ } ->
      check_loose (q /. ((1.0 -. q) ** 2.0)) partial_sum
  | v -> Alcotest.failf "expected convergent, got %s" (verdict_name v)

let test_series_rejects_negative () =
  Alcotest.check_raises "negative term"
    (Invalid_argument "Series.classify: terms must be non-negative") (fun () ->
      ignore (Numerics.Series.classify (fun m -> if m = 3 then -1.0 else 0.5)))

let test_series_partial_sum () =
  check_close 55.0 (Numerics.Series.partial_sum ~terms:10 float_of_int)

let test_infinite_product () =
  (* prod (1 - 0.5^m) = QPochhammer(1/2) ~ 0.2887880951. *)
  check_loose 0.288788095086602
    (Numerics.Series.infinite_product_one_minus (fun m -> 0.5 ** float_of_int m));
  (* A constant term collapses the product to 0. *)
  Alcotest.(check (float 1e-12)) "constant -> 0" 0.0
    (Numerics.Series.infinite_product_one_minus (fun _ -> 0.1))

let test_infinite_product_zero_term () =
  Alcotest.(check (float 0.0)) "term = 1 -> 0" 0.0
    (Numerics.Series.infinite_product_one_minus (fun m -> if m = 2 then 1.0 else 0.0))

(* --- Approx ---------------------------------------------------------------- *)

let test_approx_nan () =
  Alcotest.(check bool) "nan equals nothing" false (approx_equal nan nan)

let test_approx_relative_error () =
  check_close 0.5 (relative_error ~expected:2.0 3.0);
  check_close 3.0 (relative_error ~expected:0.0 3.0)

let suite =
  [
    ("kahan empty", `Quick, test_kahan_empty);
    ("kahan simple", `Quick, test_kahan_simple);
    ("kahan compensation", `Quick, test_kahan_compensation);
    ("kahan large-then-small", `Quick, test_kahan_large_then_small);
    ("kahan sum_fn", `Quick, test_kahan_sum_fn);
    kahan_matches_sorted_sum;
    ("log_gamma at integers", `Quick, test_log_gamma_integers);
    ("log_gamma at 1/2", `Quick, test_log_gamma_half);
    ("log_gamma reflection", `Quick, test_log_gamma_reflection);
    ("log_gamma poles", `Quick, test_log_gamma_poles);
    ("log_factorial", `Quick, test_log_factorial);
    ("log_factorial negative", `Quick, test_log_factorial_negative);
    ("log1mexp", `Quick, test_log1mexp);
    log1mexp_identity;
    ("logspace roundtrip", `Quick, test_logspace_roundtrip);
    ("logspace add", `Quick, test_logspace_add);
    ("logspace add huge", `Quick, test_logspace_add_huge);
    ("logspace sub", `Quick, test_logspace_sub);
    ("logspace sum", `Quick, test_logspace_sum);
    ("logspace sum_fn", `Quick, test_logspace_sum_fn);
    logspace_add_commutes;
    ("choose small", `Quick, test_choose_small);
    ("choose_float matches exact", `Quick, test_choose_float_matches_exact);
    ("log_choose large", `Quick, test_log_choose_large);
    ("log_choose out of range", `Quick, test_log_choose_out_of_range);
    ("pascal row", `Quick, test_pascal_row);
    ("pascal row sums", `Quick, test_pascal_row_sums);
    binomial_symmetry;
    binomial_pascal_identity;
    ("prob pow", `Quick, test_prob_pow);
    ("prob pow invalid", `Quick, test_prob_pow_invalid);
    ("geometric sum exact", `Quick, test_geometric_sum_exact);
    ("geometric sum near one", `Quick, test_geometric_sum_near_one);
    ("geometric sum huge n", `Quick, test_geometric_sum_huge_n);
    ("at_least_one_of", `Quick, test_at_least_one_of);
    geometric_sum_matches_naive;
    ("series partial sum", `Quick, test_series_partial_sum);
    ("infinite product", `Quick, test_infinite_product);
    ("infinite product zero term", `Quick, test_infinite_product_zero_term);
    at_least_one_bounds;
    ("series geometric convergent", `Quick, test_series_geometric_convergent);
    ("series constant divergent", `Quick, test_series_constant_divergent);
    ("series m*q^m convergent", `Quick, test_series_m_qm_convergent);
    ("series rejects negative", `Quick, test_series_rejects_negative);
    ("approx nan", `Quick, test_approx_nan);
    ("approx relative error", `Quick, test_approx_relative_error);
  ]
