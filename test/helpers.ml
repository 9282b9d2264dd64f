(* Shared Alcotest testables and qcheck plumbing. *)

(* [approx_equal a b] holds when |a - b| <= atol + rtol * max(|a|, |b|);
   [nan] is equal to nothing. *)
let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  if Float.is_nan a || Float.is_nan b then false
  else if a = b then true
  else Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

(* |actual - expected| / |expected|, the absolute error when expected = 0. *)
let relative_error ~expected actual =
  if expected = 0.0 then Float.abs actual
  else Float.abs (actual -. expected) /. Float.abs expected

let float_approx ?(rtol = 1e-9) ?(atol = 1e-12) () =
  Alcotest.testable (fun ppf x -> Fmt.pf ppf "%.17g" x) (approx_equal ~rtol ~atol)

let close = float_approx ()

let loose = float_approx ~rtol:1e-6 ~atol:1e-9 ()

let check_close ?(msg = "value") expected actual = Alcotest.check close msg expected actual

let check_loose ?(msg = "value") expected actual = Alcotest.check loose msg expected actual

let check_in_unit ~msg x =
  if not (Numerics.Prob.is_valid x) then
    Alcotest.failf "%s: %.17g is not in [0,1]" msg x

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Probabilities away from the exact endpoints, where most formulas
   have separate exact cases already covered by unit tests. *)
let prob_gen = QCheck2.Gen.float_range 0.001 0.999

let small_prob_gen = QCheck2.Gen.float_range 0.001 0.6

let rng_of_seed seed = Prng.Splitmix.create ~seed

(* sum_h n(h) of a geometry spec over 2^d nodes. *)
let total_population (spec : Rcm.Spec.t) ~d =
  Numerics.Kahan.sum_fn ~lo:1 ~hi:(spec.max_phase ~d) (fun h -> exp (spec.log_population ~d ~h))

let delivered = function Routing.Outcome.Delivered _ -> true | Dropped _ -> false

let hops_of = function Routing.Outcome.Delivered { hops } | Dropped { hops; _ } -> hops

(* Series readers and verdicts over the production Series API. *)
let column (series : Experiments.Series.t) label =
  match List.find_opt (fun (c : Experiments.Series.column) -> c.label = label) series.columns with
  | Some c -> c.values
  | None -> Alcotest.failf "series has no column %S" label

let value_at series ~label ~x =
  Array.find_index (fun v -> Float.abs (v -. x) <= 1e-9) series.Experiments.Series.x
  |> Option.map (fun i -> (column series label).(i))

(* The grid points where [bad a b] holds between two named columns. *)
let violations series a b bad =
  let va = column series a and vb = column series b in
  List.filteri (fun i _ -> bad va.(i) vb.(i)) (Array.to_list series.Experiments.Series.x)

(* Total-variation distance between two pmfs, padded to equal length. *)
let total_variation a b =
  let at p i = if i < Array.length p then p.(i) else 0.0 in
  let n = max (Array.length a) (Array.length b) in
  Numerics.Kahan.sum_fn ~lo:0 ~hi:(n - 1) (fun i -> Float.abs (at a i -. at b i)) /. 2.0

(* Every geometry with a sparse overlay: all but hypercube, whose
   sparse form is a zone partition. *)
let sparse_geometries =
  List.filter (fun g -> not (Rcm.Geometry.equal g Rcm.Geometry.Hypercube)) Rcm.Geometry.all

(* [f ()] with the trace sink open on [path], closed afterwards. *)
let with_trace path f =
  Obs.Trace.open_file path;
  Fun.protect ~finally:Obs.Trace.close f

let counter_value name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

(* Loadmap readings over the production API. *)
let loadmap_total lm kind = Array.fold_left ( + ) 0 (Obs.Loadmap.counts lm kind)

let loadmap_equal a b =
  Obs.Loadmap.nodes a = Obs.Loadmap.nodes b
  && List.for_all (fun k -> Obs.Loadmap.counts a k = Obs.Loadmap.counts b k) Obs.Loadmap.all_kinds

(* Alive-mask helpers over the production mask API. *)
let alive_count mask = Overlay.Rank.count (Overlay.Rank.create mask)

let mask_of_bools alive =
  let mask = Overlay.Failure.none (Array.length alive) in
  Array.iteri (fun v a -> if not a then Overlay.Failure.set mask v false) alive;
  mask

let kill mask ids = Array.iter (fun v -> Overlay.Failure.set mask v false) ids

(* A fair coin: the low bit of the next output. *)
let coin rng = Int64.logand (Prng.Splitmix.next_int64 rng) 1L = 1L
