open Helpers

(* Welford's summary of the samples, in array order. *)
let of_array xs =
  let s = Stats.Summary.create () in
  Array.iter (Stats.Summary.add s) xs;
  s

let test_summary_basic () =
  let s = of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  check_close 2.5 (Stats.Summary.mean s);
  check_close (5.0 /. 3.0) (Stats.Summary.variance s);
  check_close 1.0 (Stats.Summary.min s);
  check_close 4.0 (Stats.Summary.max s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Stats.Summary.variance s))

let test_summary_single () =
  let s = of_array [| 7.0 |] in
  check_close 7.0 (Stats.Summary.mean s);
  Alcotest.(check bool) "variance nan with one sample" true
    (Float.is_nan (Stats.Summary.variance s))

let test_summary_constant () =
  let s = of_array (Array.make 100 3.0) in
  check_close 3.0 (Stats.Summary.mean s);
  Alcotest.(check bool) "zero variance" true (Stats.Summary.variance s < 1e-20)

let test_summary_shifted_variance () =
  (* Welford must be immune to a large common offset. *)
  let base = [| 1.0; 2.0; 3.0; 4.0 |] in
  let shifted = Array.map (fun x -> x +. 1e9) base in
  check_loose
    (Stats.Summary.variance (of_array base))
    (Stats.Summary.variance (of_array shifted))

let summary_mean_bounds =
  qcheck "mean lies within min..max"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1e3) 1e3))
    (fun xs ->
      let s = of_array (Array.of_list xs) in
      Stats.Summary.mean s >= Stats.Summary.min s -. 1e-9
      && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-9)

(* A histogram summarises like its expanded samples: the same count,
   min and max, the variance within a relative 1e-12, nan when empty.
   The mean is one rounding of the exact quotient (the float sum of
   small integer samples is exact), so it is checked bit for bit; the
   Welford mean of [of_array] rounds at every sample and drifts, up to
   33 ulp on sorted samples of this size, so it is only checked to a
   relative 1e-12. *)
let summary_of_counts =
  qcheck "summary of_counts = of_array over the samples"
    QCheck2.Gen.(list_size (int_range 0 40) (oneof [ return 0; int_range 0 300 ]))
    (fun counts ->
      let counts = Array.of_list counts in
      let samples =
        Array.concat
          (Array.to_list (Array.mapi (fun h c -> Array.make c (float_of_int h)) counts))
      in
      let a = Stats.Summary.of_counts counts and b = of_array samples in
      let same x y = (Float.is_nan x && Float.is_nan y) || x = y in
      let relative x y =
        (Float.is_nan x && Float.is_nan y)
        || Float.abs (x -. y) <= 1e-12 *. Float.max (Float.abs x) (Float.abs y)
      in
      let exact_mean =
        Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)
      in
      Stats.Summary.count a = Stats.Summary.count b
      && same (Stats.Summary.min a) (Stats.Summary.min b)
      && same (Stats.Summary.max a) (Stats.Summary.max b)
      && same (Stats.Summary.mean a) exact_mean
      && relative (Stats.Summary.mean a) (Stats.Summary.mean b)
      && relative (Stats.Summary.variance a) (Stats.Summary.variance b)
      && (Array.length samples > 0 || Float.is_nan (Stats.Summary.mean a)))

let test_wilson_midpoint () =
  let ci = Stats.Binomial_ci.wilson ~successes:50 ~trials:100 () in
  check_close 0.5 (Stats.Binomial_ci.point ci);
  Alcotest.(check bool) "contains 0.5" true (Stats.Binomial_ci.contains ci 0.5);
  Alcotest.(check bool) "below 1" true (Stats.Binomial_ci.upper ci < 0.7);
  Alcotest.(check bool) "above 0" true (Stats.Binomial_ci.lower ci > 0.3)

let test_wilson_extremes () =
  let zero = Stats.Binomial_ci.wilson ~successes:0 ~trials:100 () in
  Alcotest.(check bool) "lower at 0" true (Stats.Binomial_ci.lower zero < 1e-12);
  Alcotest.(check bool) "upper positive" true (Stats.Binomial_ci.upper zero > 0.0);
  let all = Stats.Binomial_ci.wilson ~successes:100 ~trials:100 () in
  Alcotest.(check bool) "upper at 1" true (Stats.Binomial_ci.upper all > 1.0 -. 1e-12);
  Alcotest.(check bool) "lower below 1" true (Stats.Binomial_ci.lower all < 1.0)

let test_wilson_width_shrinks () =
  let narrow = Stats.Binomial_ci.wilson ~successes:5_000 ~trials:10_000 () in
  let wide = Stats.Binomial_ci.wilson ~successes:50 ~trials:100 () in
  Alcotest.(check bool) "more trials, narrower CI" true
    Stats.Binomial_ci.(upper narrow -. lower narrow < upper wide -. lower wide)

let test_wilson_invalid () =
  Alcotest.check_raises "no trials" (Invalid_argument "Binomial_ci.wilson: no trials")
    (fun () -> ignore (Stats.Binomial_ci.wilson ~successes:0 ~trials:0 ()))

let wilson_ordered =
  qcheck "wilson lower <= point <= upper"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 1000))
    (fun (s, t) ->
      let s = min s t in
      let ci = Stats.Binomial_ci.wilson ~successes:s ~trials:t () in
      Stats.Binomial_ci.lower ci <= Stats.Binomial_ci.point ci +. 1e-12
      && Stats.Binomial_ci.point ci <= Stats.Binomial_ci.upper ci +. 1e-12
      && Stats.Binomial_ci.lower ci >= 0.0
      && Stats.Binomial_ci.upper ci <= 1.0)

let test_histogram_basic () =
  let h = Stats.Histogram.create ~buckets:4 in
  Alcotest.(check (array (float 0.0))) "empty" [| 0.0; 0.0; 0.0; 0.0 |]
    (Stats.Histogram.to_fractions h);
  List.iter (fun b -> Stats.Histogram.add_many h b 1) [ 0; 1; 1; 2; 9 ];
  (* The overflow sample (9) counts in the total, not in a bucket. *)
  Alcotest.(check (array (float 1e-12))) "fractions" [| 0.2; 0.4; 0.2; 0.0 |]
    (Stats.Histogram.to_fractions h);
  let many = Stats.Histogram.create ~buckets:4 in
  List.iter
    (fun (bucket, n) -> Stats.Histogram.add_many many bucket n)
    [ (1, 2); (3, 0); (0, 1); (9, 1); (2, 1) ];
  Alcotest.(check (array (float 0.0))) "add_many = repeated add"
    (Stats.Histogram.to_fractions h) (Stats.Histogram.to_fractions many)

let test_histogram_negative () =
  let h = Stats.Histogram.create ~buckets:2 in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.add: negative bucket")
    (fun () -> Stats.Histogram.add_many h (-1) 1);
  Alcotest.check_raises "negative count" (Invalid_argument "Histogram.add_many: negative count")
    (fun () -> Stats.Histogram.add_many h 0 (-1))

let test_sampler_pair_distinct () =
  let rng = rng_of_seed 99 in
  let pool = [| 10; 20; 30 |] in
  for _ = 1 to 1_000 do
    let a, b = Stats.Sampler.ordered_pair rng pool in
    if a = b then Alcotest.fail "pair not distinct"
  done

let test_sampler_pair_too_small () =
  let rng = rng_of_seed 1 in
  Alcotest.check_raises "small pool"
    (Invalid_argument "Sampler.ordered_pair: pool smaller than 2") (fun () ->
      ignore (Stats.Sampler.ordered_pair rng [| 1 |]))

let suite =
  [
    ("summary basic", `Quick, test_summary_basic);
    ("summary empty", `Quick, test_summary_empty);
    ("summary single", `Quick, test_summary_single);
    ("summary constant", `Quick, test_summary_constant);
    ("summary shifted variance", `Quick, test_summary_shifted_variance);
    summary_mean_bounds;
    summary_of_counts;
    ("wilson midpoint", `Quick, test_wilson_midpoint);
    ("wilson extremes", `Quick, test_wilson_extremes);
    ("wilson width shrinks", `Quick, test_wilson_width_shrinks);
    ("wilson invalid", `Quick, test_wilson_invalid);
    wilson_ordered;
    ("histogram basic", `Quick, test_histogram_basic);
    ("histogram negative", `Quick, test_histogram_negative);
    ("sampler pair distinct", `Quick, test_sampler_pair_distinct);
    ("sampler pair too small", `Quick, test_sampler_pair_too_small);
  ]
