open Helpers

let test_determinism () =
  let a = Prng.Splitmix.create ~seed:123 in
  let b = Prng.Splitmix.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix.next_int64 a)
      (Prng.Splitmix.next_int64 b)
  done

let test_seed_changes_stream () =
  let a = Prng.Splitmix.create ~seed:1 in
  let b = Prng.Splitmix.create ~seed:2 in
  Alcotest.(check bool) "different first draw" true
    (Prng.Splitmix.next_int64 a <> Prng.Splitmix.next_int64 b)

let test_copy_is_independent () =
  let a = Prng.Splitmix.create ~seed:9 in
  let b = Prng.Splitmix.copy a in
  let x = Prng.Splitmix.next_int64 a in
  let y = Prng.Splitmix.next_int64 b in
  Alcotest.(check int64) "copy replays" x y

let test_split_diverges () =
  (* Sim.Trial.seeds splits a stream off the master by seeding a new
     generator with the master's next output: the two must differ. *)
  let a = Prng.Splitmix.create ~seed:77 in
  let b = Prng.Splitmix.of_int64 (Prng.Splitmix.next_int64 a) in
  let xs = List.init 20 (fun _ -> Prng.Splitmix.next_int64 a) in
  let ys = List.init 20 (fun _ -> Prng.Splitmix.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_known_splitmix_vector () =
  (* Reference values for SplitMix64 with seed 0 (Vigna's
     implementation): first three outputs. *)
  let g = Prng.Splitmix.create ~seed:0 in
  Alcotest.(check int64) "v0" 0xE220A8397B1DCDAFL (Prng.Splitmix.next_int64 g);
  Alcotest.(check int64) "v1" 0x6E789E6AA1B965F4L (Prng.Splitmix.next_int64 g);
  Alcotest.(check int64) "v2" 0x06C45D188009454FL (Prng.Splitmix.next_int64 g)

let test_float_range () =
  let g = Prng.Splitmix.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Prng.Splitmix.float g in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %g" x
  done

let test_float_mean () =
  let g = Prng.Splitmix.create ~seed:6 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.Splitmix.float g
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let g = Prng.Splitmix.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Prng.Splitmix.int g 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done

let test_int_uniformity () =
  (* Chi-square over 8 buckets, 80k draws: statistic ~ chi2(7); reject
     only far beyond the 99.9% quantile (24.3). *)
  let g = Prng.Splitmix.create ~seed:8 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let x = Prng.Splitmix.int g 8 in
    buckets.(x) <- buckets.(x) + 1
  done;
  let expected = float_of_int n /. 8.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.2f < 30" chi2) true (chi2 < 30.0)

let test_int_invalid () =
  let g = Prng.Splitmix.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix.int: non-positive bound")
    (fun () -> ignore (Prng.Splitmix.int g 0))

let test_bernoulli_frequency () =
  let g = Prng.Splitmix.create ~seed:3 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.Splitmix.bernoulli g ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq ~ 0.3" true (Float.abs (freq -. 0.3) < 0.01)

let test_bernoulli_endpoints () =
  let g = Prng.Splitmix.create ~seed:4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0" false (Prng.Splitmix.bernoulli g ~p:0.0);
    Alcotest.(check bool) "p=1" true (Prng.Splitmix.bernoulli g ~p:1.0)
  done

let test_harmonic_bounds () =
  let g = Prng.Splitmix.create ~seed:12 in
  for _ = 1 to 10_000 do
    let x = Prng.Splitmix.harmonic_int g ~n:1000 in
    if x < 1 || x > 1000 then Alcotest.failf "harmonic out of range: %d" x
  done

let test_harmonic_distribution () =
  (* P(X <= x) ~ log(x+1)/log(n+1); check the median region. With
     n = 1023 the CDF at 31 is ~ log(32)/log(1024) = 0.5. *)
  let g = Prng.Splitmix.create ~seed:13 in
  let n = 1023 in
  let draws = 50_000 in
  let below = ref 0 in
  for _ = 1 to draws do
    if Prng.Splitmix.harmonic_int g ~n <= 31 then incr below
  done;
  let freq = float_of_int !below /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "CDF(31) = %.3f ~ 0.5" freq)
    true
    (Float.abs (freq -. 0.5) < 0.02)

let harmonic_in_range =
  qcheck "harmonic stays in 1..n"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let g = Prng.Splitmix.create ~seed in
      let x = Prng.Splitmix.harmonic_int g ~n in
      1 <= x && x <= n)

let advance_matches_steps =
  qcheck "advance n = n next_int64 steps"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let stepped = Prng.Splitmix.create ~seed in
      let advanced = Prng.Splitmix.create ~seed in
      for _ = 1 to n do
        ignore (Prng.Splitmix.next_int64 stepped)
      done;
      Prng.Splitmix.advance advanced n;
      Prng.Splitmix.state stepped = Prng.Splitmix.state advanced
      &&
      match Prng.Splitmix.advance advanced (-n - 1) with
      | () -> false
      | exception Invalid_argument _ -> true)

(* Draw k without the k draws before it, checked against stepping,
   at indexes up to past the largest xor table's 2^30 * 30 draws; a
   power-of-two [int] is the same draw mod the bound. *)
let bits62_at_matches_draws =
  qcheck "bits62_at k = draw k"
    QCheck2.Gen.(triple int64 (int_range 0 (31 * (1 lsl 30))) (int_range 1 30))
    (fun (state, k, b) ->
      let g = Prng.Splitmix.of_int64 state in
      Prng.Splitmix.advance g k;
      let direct = Prng.Splitmix.bits62_at state k in
      let next = Prng.Splitmix.next_int64 (Prng.Splitmix.copy g) in
      let draw = Int64.to_int (Int64.shift_right_logical next 2) in
      direct = draw && Prng.Splitmix.int g (1 lsl b) = direct land ((1 lsl b) - 1))

let int_unbiased_small_bounds =
  qcheck "int covers the whole range"
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let g = Prng.Splitmix.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 2_000 do
        seen.(Prng.Splitmix.int g bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- the representation against a model over next_int64 ------------------ *)

(* [of_int64 reject_state] draws all ones next: its top 62 bits are
   max62, the one value [int] rejects at bound 3 (and at [max_int]). *)
let reject_state = 0x31628AF67B2131ABL

let test_int_rejection () =
  let t = Prng.Splitmix.of_int64 reject_state in
  let probe = Prng.Splitmix.copy t in
  Alcotest.(check int64) "next draw is all ones" (-1L) (Prng.Splitmix.next_int64 probe);
  let second = Prng.Splitmix.next_int64 probe in
  let two_steps = Prng.Splitmix.copy t in
  Prng.Splitmix.advance two_steps 2;
  let v = Prng.Splitmix.int t 3 in
  Alcotest.(check int64) "two draws consumed" (Prng.Splitmix.state two_steps)
    (Prng.Splitmix.state t);
  Alcotest.(check int) "the second draw's value"
    (Int64.to_int (Int64.shift_right_logical second 2) mod 3)
    v

(* Every draw function written over [next_int64] alone: the stream
   contract any representation of the state must keep. *)
let model_bits62 g = Int64.to_int (Int64.shift_right_logical (Prng.Splitmix.next_int64 g) 2)

let rec model_int g bound =
  let max62 = (1 lsl 62) - 1 in
  let v = model_bits62 g in
  if v <= max62 - (((max62 mod bound) + 1) mod bound) then v mod bound
  else model_int g bound

let model_float g =
  Int64.to_float (Int64.shift_right_logical (Prng.Splitmix.next_int64 g) 11) *. 0x1.0p-53

let model_harmonic g n =
  let x = int_of_float (exp (model_float g *. log (float_of_int (n + 1)))) in
  max 1 (min n x)

let draws_match_model =
  qcheck "draws match a model over next_int64"
    QCheck2.Gen.(
      triple
        (frequency [ (1, pure reject_state); (9, int64) ])
        (int_range 1 61) (int_range 1 100_000))
    (fun (state, k, n) ->
      let same label draw model =
        let t = Prng.Splitmix.of_int64 state and g = Prng.Splitmix.of_int64 state in
        List.for_all Fun.id (List.init 4 (fun _ -> draw t = model g))
        && Prng.Splitmix.state t = Prng.Splitmix.state g
        || QCheck2.Test.fail_reportf "%s differs from the model at state %Ld" label state
      in
      List.for_all
        (fun bound ->
          same (Printf.sprintf "int %d" bound)
            (fun t -> Prng.Splitmix.int t bound)
            (fun g -> model_int g bound))
        [ 1; 2; 3; 1 lsl k; (1 lsl k) + 1; max_int ]
      && same "float" Prng.Splitmix.float model_float
      && same "harmonic_int"
           (fun t -> Prng.Splitmix.harmonic_int t ~n)
           (fun g -> model_harmonic g n))

let state_resumes_and_copy_is_independent =
  qcheck "of_int64 (state t) resumes; copy is independent"
    QCheck2.Gen.(pair int64 (int_range 0 20))
    (fun (state, steps) ->
      let t = Prng.Splitmix.of_int64 state in
      for _ = 1 to steps do
        ignore (Prng.Splitmix.int t 7)
      done;
      let resumed = Prng.Splitmix.of_int64 (Prng.Splitmix.state t) in
      let copy = Prng.Splitmix.copy t in
      let ahead = List.init 3 (fun _ -> Prng.Splitmix.next_int64 copy) in
      List.init 3 (fun _ -> Prng.Splitmix.next_int64 resumed) = ahead
      && List.init 3 (fun _ -> Prng.Splitmix.next_int64 t) = ahead)

(* Native code only: the bytecode interpreter boxes every int64. *)
let test_int_allocates_nothing () =
  let g = Prng.Splitmix.create ~seed:41 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.Splitmix.int g 1_000_003
  done;
  let words = Gc.minor_words () -. before in
  if Sys.backend_type = Sys.Native then
    Alcotest.(check (float 0.0)) "minor words for 10k int draws" 0.0 words;
  Alcotest.(check bool) "draws used" true (!acc > 0)

(* --- Zipf ------------------------------------------------------------------- *)

let test_zipf_guards () =
  let reject msg f =
    Alcotest.(check bool) msg true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "n = 0" (fun () -> Prng.Zipf.create ~s:1.0 ~n:0);
  reject "negative s" (fun () -> Prng.Zipf.create ~s:(-0.5) ~n:4);
  reject "nan s" (fun () -> Prng.Zipf.create ~s:Float.nan ~n:4);
  reject "infinite s" (fun () -> Prng.Zipf.create ~s:Float.infinity ~n:4);
  reject "pmf out of range" (fun () -> Prng.Zipf.pmf (Prng.Zipf.create ~s:1.0 ~n:4) 4)

let test_zipf_pmf_shape () =
  List.iter
    (fun s ->
      let z = Prng.Zipf.create ~s ~n:100 in
      let total = ref 0.0 in
      for k = 0 to 99 do
        total := !total +. Prng.Zipf.pmf z k
      done;
      Alcotest.check (float_approx ~rtol:1e-9 ~atol:1e-9 ())
        (Printf.sprintf "pmf sums to 1 at s=%g" s)
        1.0 !total;
      (* P(k) / P(k') = ((k'+1)/(k+1))^s exactly. *)
      check_close
        ~msg:(Printf.sprintf "rank ratio at s=%g" s)
        (2.0 ** s)
        (Prng.Zipf.pmf z 0 /. Prng.Zipf.pmf z 1))
    [ 0.0; 0.8; 1.2 ]

let test_zipf_uniform_at_s0 () =
  let n = 16 in
  let z = Prng.Zipf.create ~s:0.0 ~n in
  for k = 0 to n - 1 do
    check_close ~msg:(Printf.sprintf "pmf %d" k) (1.0 /. float_of_int n)
      (Prng.Zipf.pmf z k)
  done

let test_zipf_determinism () =
  let z = Prng.Zipf.create ~s:0.8 ~n:64 in
  let draws seed =
    let g = Prng.Splitmix.create ~seed in
    List.init 200 (fun _ -> Prng.Zipf.draw z g)
  in
  Alcotest.(check (list int)) "same seed, same ranks" (draws 17) (draws 17);
  List.iter
    (fun k -> Alcotest.(check bool) "rank in range" true (0 <= k && k < 64))
    (draws 17)

let test_zipf_single_draw () =
  (* One Splitmix.float per draw — the alignment contract the storage
     layer relies on. *)
  let z = Prng.Zipf.create ~s:1.2 ~n:32 in
  let a = Prng.Splitmix.create ~seed:23 in
  let b = Prng.Splitmix.create ~seed:23 in
  ignore (Prng.Zipf.draw z a);
  ignore (Prng.Splitmix.float b);
  Alcotest.(check int64) "streams aligned" (Prng.Splitmix.next_int64 b)
    (Prng.Splitmix.next_int64 a)

let test_zipf_empirical_slope () =
  (* Empirical rank frequencies track the pmf: the hottest ranks match
     within sampling noise, so log f(k) vs log (k+1) has slope -s. *)
  List.iter
    (fun s ->
      let n = 64 in
      let z = Prng.Zipf.create ~s ~n in
      let g = Prng.Splitmix.create ~seed:31 in
      let draws = 200_000 in
      let counts = Array.make n 0 in
      for _ = 1 to draws do
        let k = Prng.Zipf.draw z g in
        counts.(k) <- counts.(k) + 1
      done;
      for k = 0 to 4 do
        let freq = float_of_int counts.(k) /. float_of_int draws in
        let err = Float.abs (freq -. Prng.Zipf.pmf z k) in
        if err > 0.01 then
          Alcotest.failf "s=%g rank %d: freq %.4f vs pmf %.4f" s k freq
            (Prng.Zipf.pmf z k)
      done;
      if s > 0.0 then
        Alcotest.(check bool)
          (Printf.sprintf "head dominates tail at s=%g" s)
          true
          (counts.(0) > counts.(n - 1)))
    [ 0.0; 0.8; 1.2 ]

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("seed changes stream", `Quick, test_seed_changes_stream);
    ("copy replays", `Quick, test_copy_is_independent);
    ("split diverges", `Quick, test_split_diverges);
    ("known splitmix vectors", `Quick, test_known_splitmix_vector);
    ("float in [0,1)", `Quick, test_float_range);
    ("float mean", `Quick, test_float_mean);
    ("int bounds", `Quick, test_int_bounds);
    ("int uniformity (chi2)", `Quick, test_int_uniformity);
    ("int invalid bound", `Quick, test_int_invalid);
    ("bernoulli frequency", `Quick, test_bernoulli_frequency);
    ("bernoulli endpoints", `Quick, test_bernoulli_endpoints);
    ("harmonic bounds", `Quick, test_harmonic_bounds);
    ("harmonic distribution", `Quick, test_harmonic_distribution);
    harmonic_in_range;
    int_unbiased_small_bounds;
    advance_matches_steps;
    bits62_at_matches_draws;
    ("int rejection branch", `Quick, test_int_rejection);
    draws_match_model;
    state_resumes_and_copy_is_independent;
    ("int draws allocate nothing", `Quick, test_int_allocates_nothing);
    ("zipf guards", `Quick, test_zipf_guards);
    ("zipf pmf shape", `Quick, test_zipf_pmf_shape);
    ("zipf s=0 is uniform", `Quick, test_zipf_uniform_at_s0);
    ("zipf determinism", `Quick, test_zipf_determinism);
    ("zipf single-draw alignment", `Quick, test_zipf_single_draw);
    ("zipf empirical slope", `Slow, test_zipf_empirical_slope);
  ]
