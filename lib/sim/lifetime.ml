(* Session/gap length distributions for churn. Each is parameterised
   by its mean so sweeps over "mean session time" compare shapes at
   equal load: the scale parameter is derived from the requested mean.

   Measurement studies (Saroiu et al., Stutzbach & Rejaie) find real
   peer session times heavy-tailed; Pareto and Weibull are the two
   standard fits, exponential the memoryless baseline. *)

type shape = Exponential | Pareto of float | Weibull of float

type t = { shape : shape; mean : float }

let check_mean mean =
  if not (Float.is_finite mean) || mean <= 0.0 then
    invalid_arg "Lifetime: mean must be positive and finite"

let exponential ~mean =
  check_mean mean;
  { shape = Exponential; mean }

(* Shape parameters must be finite: an infinite alpha or shape turns
   the inverse-CDF draw into nan (Pareto) or a constant (Weibull), and
   a nan one slips past any comparison. *)
let valid_alpha alpha = Float.is_finite alpha && alpha > 1.0

let valid_shape shape = Float.is_finite shape && shape > 0.0

let pareto ~alpha ~mean =
  check_mean mean;
  if not (valid_alpha alpha) then
    invalid_arg "Lifetime.pareto: alpha must be finite and exceed 1 (finite mean)";
  { shape = Pareto alpha; mean }

let weibull ~shape ~mean =
  check_mean mean;
  if not (valid_shape shape) then
    invalid_arg "Lifetime.weibull: shape must be finite and positive";
  { shape = Weibull shape; mean }

let mean t = t.mean

let shape t = t.shape

(* Inverse-CDF sampling from one uniform draw each, so a distribution
   swap costs exactly one PRNG float either way — event schedules stay
   comparable across shapes at the same seed. *)
let draw t rng =
  let u = Prng.Splitmix.float rng in
  match t.shape with
  | Exponential -> -.t.mean *. Float.log1p (-.u)
  | Pareto alpha ->
      (* X = x_m (1-u)^(-1/alpha), mean = x_m alpha/(alpha-1). *)
      let x_m = t.mean *. (alpha -. 1.0) /. alpha in
      x_m *. ((1.0 -. u) ** (-1.0 /. alpha))
  | Weibull shape ->
      (* X = scale (-ln(1-u))^(1/shape), mean = scale Gamma(1+1/shape). *)
      let scale = t.mean /. Float.exp (Numerics.Special.log_gamma (1.0 +. (1.0 /. shape))) in
      scale *. ((-.Float.log1p (-.u)) ** (1.0 /. shape))

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "exp" | "exponential" -> Ok Exponential
  | s -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "unknown distribution %S (want exp, pareto:ALPHA or weibull:SHAPE)" s)
      | Some i -> (
          let name = String.sub s 0 i in
          let param = String.sub s (i + 1) (String.length s - i - 1) in
          match (name, float_of_string_opt param) with
          | _, None -> Error (Printf.sprintf "bad parameter %S in %S" param s)
          | "pareto", Some alpha ->
              if valid_alpha alpha then Ok (Pareto alpha)
              else Error "pareto alpha must be finite and exceed 1 (finite mean)"
          | "weibull", Some shape ->
              if valid_shape shape then Ok (Weibull shape)
              else Error "weibull shape must be finite and positive"
          | _ -> Error (Printf.sprintf "unknown distribution %S (want exp, pareto:ALPHA or weibull:SHAPE)" name)))

(* The shortest of %.15g, %.16g and %.17g that reads back to [x]
   (%.17g always does). Checkpoint keys carry this spelling, so two
   parameters that differ in any bit must print differently; %g keeps
   only six digits. *)
let round_trip x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s
  else
    let s = Printf.sprintf "%.16g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let shape_to_string = function
  | Exponential -> "exp"
  | Pareto alpha -> "pareto:" ^ round_trip alpha
  | Weibull shape -> "weibull:" ^ round_trip shape
